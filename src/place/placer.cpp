#include "place/placer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "place/net_index.hpp"

namespace mcfpga::place {

namespace {

/// Grid/pad geometry shared (read-only) by every restart.
struct Geometry {
  std::size_t cells = 0;
  std::size_t pads = 0;
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<std::int32_t> pad_x, pad_y;
};

Geometry make_geometry(const arch::RoutingGraph& graph) {
  Geometry g;
  g.cells = graph.spec().num_cells();
  g.pads = graph.num_pads();
  g.width = graph.spec().width;
  g.height = graph.spec().height;
  g.pad_x.resize(g.pads);
  g.pad_y.resize(g.pads);
  for (std::size_t p = 0; p < g.pads; ++p) {
    const auto& node = graph.node(graph.pad(p));
    g.pad_x[p] = node.x;
    g.pad_y[p] = node.y;
  }
  return g;
}

/// Geometric cooling: the temperature's factor per sweep.
constexpr double kCooling = 0.9;

/// One independent annealing run.  Both delta-evaluation modes draw the
/// same RNG sequence and see the same exact integer deltas, so for a given
/// seed the trajectory — and the returned Placement — is bit-identical
/// whether options.incremental is set or not.
Placement anneal_one(const PlacementProblem& problem, const Geometry& geom,
                     const NetIndex& index, const PlacerOptions& options,
                     std::uint64_t seed, const Placement* initial) {
  Rng rng(seed);
  const std::size_t width = geom.width;

  // Initial placement: the warm-start placement when one is given (the
  // closure loop's re-place), otherwise clusters in scan order and I/Os
  // round-robin over pads.
  std::vector<std::size_t> cluster_cell(problem.num_clusters);
  std::vector<std::size_t> cell_cluster(geom.cells, SIZE_MAX);
  std::vector<std::size_t> io_pad(problem.num_io_terminals);
  std::vector<std::size_t> pad_io(geom.pads, SIZE_MAX);
  if (initial != nullptr) {
    for (std::size_t i = 0; i < problem.num_clusters; ++i) {
      const auto [x, y] = initial->cluster_pos[i];
      cluster_cell[i] = y * width + x;
      cell_cluster[cluster_cell[i]] = i;
    }
    for (std::size_t i = 0; i < problem.num_io_terminals; ++i) {
      io_pad[i] = initial->io_pads[i];
      pad_io[io_pad[i]] = i;
    }
  } else {
    for (std::size_t i = 0; i < problem.num_clusters; ++i) {
      cluster_cell[i] = i;
      cell_cluster[i] = i;
    }
    for (std::size_t i = 0; i < problem.num_io_terminals; ++i) {
      io_pad[i] =
          (i * geom.pads) / std::max<std::size_t>(problem.num_io_terminals, 1);
      // Resolve collisions linearly.
      while (pad_io[io_pad[i]] != SIZE_MAX) {
        io_pad[i] = (io_pad[i] + 1) % geom.pads;
      }
      pad_io[io_pad[i]] = i;
    }
  }

  IncrementalHpwl hp(index);
  {
    std::vector<std::int32_t> xs(index.num_terminals());
    std::vector<std::int32_t> ys(index.num_terminals());
    for (std::size_t i = 0; i < problem.num_clusters; ++i) {
      xs[i] = static_cast<std::int32_t>(cluster_cell[i] % width);
      ys[i] = static_cast<std::int32_t>(cluster_cell[i] / width);
    }
    for (std::size_t i = 0; i < problem.num_io_terminals; ++i) {
      xs[problem.num_clusters + i] = geom.pad_x[io_pad[i]];
      ys[problem.num_clusters + i] = geom.pad_y[io_pad[i]];
    }
    hp.reset(std::move(xs), std::move(ys));
  }

  std::int64_t cost = hp.cost();
  double temperature = std::max(
      1e-6,
      options.initial_temperature_factor * std::max<double>(
                                               static_cast<double>(cost), 1.0));
  const std::size_t sweep_moves = moves_per_sweep(problem);
  const double max_dim = static_cast<double>(std::max(geom.width, geom.height));
  double rlim = max_dim;

  IncrementalHpwl::Move moves[2];
  std::size_t evaluated = 0;
  std::size_t accepted = 0;
  // Shared metropolis tail for both move kinds: evaluate the packed
  // moves, accept (commit) or reject (rollback + caller-supplied revert
  // of the occupancy trackers).
  const auto attempt = [&](std::size_t num_moves, Rng& r, double temp,
                           const auto& revert) {
    const std::int64_t delta = options.incremental
                                   ? hp.propose(moves, num_moves)
                                   : hp.propose_full(moves, num_moves);
    ++evaluated;
    if (delta <= 0 ||
        r.next_double() < std::exp(-static_cast<double>(delta) / temp)) {
      hp.commit();
      cost += delta;
      ++accepted;
    } else {
      hp.rollback();
      revert();
    }
  };

  for (std::size_t sweep = 0; sweep < options.sweeps; ++sweep) {
    evaluated = 0;
    accepted = 0;
    for (std::size_t m = 0; m < sweep_moves; ++m) {
      const bool move_cluster =
          problem.num_io_terminals == 0 ||
          (problem.num_clusters > 0 && rng.next_bool(0.7));
      if (move_cluster && problem.num_clusters > 0) {
        const std::size_t a =
            static_cast<std::size_t>(rng.next_below(problem.num_clusters));
        const std::size_t old_cell = cluster_cell[a];
        // Uniform draw over the window around the cluster's cell.
        const std::size_t r = static_cast<std::size_t>(std::max(1.0, rlim));
        const std::size_t ax = old_cell % width;
        const std::size_t ay = old_cell / width;
        const std::size_t x0 = ax > r ? ax - r : 0;
        const std::size_t x1 = std::min(geom.width - 1, ax + r);
        const std::size_t y0 = ay > r ? ay - r : 0;
        const std::size_t y1 = std::min(geom.height - 1, ay + r);
        const std::size_t span_x = x1 - x0 + 1;
        const std::size_t pick = static_cast<std::size_t>(
            rng.next_below(span_x * (y1 - y0 + 1)));
        const std::size_t target_cell =
            (y0 + pick / span_x) * width + (x0 + pick % span_x);
        if (target_cell == old_cell) {
          continue;
        }
        const std::size_t other = cell_cluster[target_cell];
        // Apply move (swap or relocate).
        cluster_cell[a] = target_cell;
        cell_cluster[target_cell] = a;
        cell_cluster[old_cell] = other;
        if (other != SIZE_MAX) {
          cluster_cell[other] = old_cell;
        }
        moves[0] = {static_cast<std::uint32_t>(a),
                    static_cast<std::int32_t>(target_cell % width),
                    static_cast<std::int32_t>(target_cell / width)};
        std::size_t num_moves = 1;
        if (other != SIZE_MAX) {
          moves[1] = {static_cast<std::uint32_t>(other),
                      static_cast<std::int32_t>(old_cell % width),
                      static_cast<std::int32_t>(old_cell / width)};
          num_moves = 2;
        }
        attempt(num_moves, rng, temperature, [&]() {
          cluster_cell[a] = old_cell;
          cell_cluster[old_cell] = a;
          cell_cluster[target_cell] = other;
          if (other != SIZE_MAX) {
            cluster_cell[other] = target_cell;
          }
        });
      } else if (problem.num_io_terminals > 0) {
        const std::size_t a = static_cast<std::size_t>(
            rng.next_below(problem.num_io_terminals));
        const std::size_t target_pad =
            static_cast<std::size_t>(rng.next_below(geom.pads));
        const std::size_t old_pad = io_pad[a];
        if (target_pad == old_pad) {
          continue;
        }
        const std::size_t other = pad_io[target_pad];
        io_pad[a] = target_pad;
        pad_io[target_pad] = a;
        pad_io[old_pad] = other;
        if (other != SIZE_MAX) {
          io_pad[other] = old_pad;
        }
        moves[0] = {static_cast<std::uint32_t>(problem.num_clusters + a),
                    geom.pad_x[target_pad], geom.pad_y[target_pad]};
        std::size_t num_moves = 1;
        if (other != SIZE_MAX) {
          moves[1] = {static_cast<std::uint32_t>(problem.num_clusters + other),
                      geom.pad_x[old_pad], geom.pad_y[old_pad]};
          num_moves = 2;
        }
        attempt(num_moves, rng, temperature, [&]() {
          io_pad[a] = old_pad;
          pad_io[old_pad] = a;
          pad_io[target_pad] = other;
          if (other != SIZE_MAX) {
            io_pad[other] = target_pad;
          }
        });
      }
    }
    const double accept_rate =
        evaluated != 0
            ? static_cast<double>(accepted) / static_cast<double>(evaluated)
            : 0.0;
    temperature *= kCooling;
    rlim = std::clamp(rlim * (1.0 - 0.44 + accept_rate), 1.0, max_dim);
  }

  Placement out;
  out.cluster_pos.resize(problem.num_clusters);
  for (std::size_t i = 0; i < problem.num_clusters; ++i) {
    out.cluster_pos[i] = {cluster_cell[i] % width, cluster_cell[i] / width};
  }
  out.io_pads = std::move(io_pad);
  out.cost = static_cast<double>(cost);
  return out;
}

}  // namespace

void PlacerOptions::validate() const {
  MCFPGA_REQUIRE(sweeps > 0, "placer needs at least one sweep");
  MCFPGA_REQUIRE(initial_temperature_factor > 0.0,
                 "initial_temperature_factor must be positive");
  MCFPGA_REQUIRE(num_restarts > 0, "placer needs at least one restart");
}

std::int64_t effective_net_weight(const PlacementNet& net,
                                  const PlacerOptions& options) {
  std::int64_t w = static_cast<std::int64_t>(net.weight);
  if (options.timing_mode) {
    w *= 1 + static_cast<std::int64_t>(
                 std::llround(net.criticality * kTimingWeight));
  }
  return w;
}

std::size_t moves_per_sweep(const PlacementProblem& problem) {
  return 16 * (problem.num_clusters + problem.num_io_terminals + 1);
}

double placement_cost(const PlacementProblem& problem,
                      const arch::RoutingGraph& graph,
                      const Placement& placement,
                      const PlacerOptions& options) {
  const auto terminal_pos = [&](const Terminal& t) -> std::pair<double, double> {
    if (t.kind == Terminal::Kind::kCluster) {
      return {static_cast<double>(placement.cluster_pos[t.id].first),
              static_cast<double>(placement.cluster_pos[t.id].second)};
    }
    const auto& node = graph.node(graph.pad(placement.io_pads[t.id]));
    return {static_cast<double>(node.x), static_cast<double>(node.y)};
  };
  double c = 0.0;
  for (const auto& net : problem.nets) {
    auto [min_x, min_y] = terminal_pos(net.driver);
    double max_x = min_x;
    double max_y = min_y;
    for (const auto& sink : net.sinks) {
      const auto [x, y] = terminal_pos(sink);
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x);
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
    }
    c += static_cast<double>(effective_net_weight(net, options)) *
         ((max_x - min_x) + (max_y - min_y));
  }
  return c;
}

Placement place(const PlacementProblem& problem,
                const arch::RoutingGraph& graph,
                const PlacerOptions& options, const Placement* initial) {
  options.validate();
  if (initial != nullptr) {
    MCFPGA_REQUIRE(initial->cluster_pos.size() == problem.num_clusters &&
                       initial->io_pads.size() == problem.num_io_terminals,
                   "warm-start placement must match the problem");
    // Positions must land on this fabric with no overlaps: a placement
    // from a differently-sized fabric would index the occupancy maps out
    // of range inside the anneal.
    std::vector<std::uint8_t> cell_used(graph.spec().num_cells(), 0);
    for (const auto& [x, y] : initial->cluster_pos) {
      MCFPGA_REQUIRE(x < graph.spec().width && y < graph.spec().height,
                     "warm-start cluster position outside the fabric");
      std::uint8_t& used = cell_used[y * graph.spec().width + x];
      MCFPGA_REQUIRE(used == 0, "warm-start clusters overlap");
      used = 1;
    }
    std::vector<std::uint8_t> pad_used(graph.num_pads(), 0);
    for (const std::size_t p : initial->io_pads) {
      MCFPGA_REQUIRE(p < graph.num_pads(),
                     "warm-start pad index outside the fabric");
      MCFPGA_REQUIRE(pad_used[p] == 0, "warm-start pads overlap");
      pad_used[p] = 1;
    }
  }
  const std::size_t cells = graph.spec().num_cells();
  const std::size_t pads = graph.num_pads();
  if (problem.num_clusters > cells) {
    throw FlowError("placer: " + std::to_string(problem.num_clusters) +
                    " clusters exceed " + std::to_string(cells) + " cells");
  }
  if (problem.num_io_terminals > pads) {
    throw FlowError("placer: " + std::to_string(problem.num_io_terminals) +
                    " I/O terminals exceed " + std::to_string(pads) +
                    " pads");
  }
  for (const auto& net : problem.nets) {
    const auto check = [&](const Terminal& t) {
      if (t.kind == Terminal::Kind::kCluster) {
        MCFPGA_REQUIRE(t.id < problem.num_clusters, "net cluster id range");
      } else {
        MCFPGA_REQUIRE(t.id < problem.num_io_terminals, "net io id range");
      }
    };
    check(net.driver);
    for (const auto& s : net.sinks) {
      check(s);
    }
    MCFPGA_REQUIRE(net.criticality >= 0.0 && net.criticality <= 1.0,
                   "net criticality must lie in [0, 1]");
  }

  const NetIndex index(problem, options);
  const Geometry geom = make_geometry(graph);
  const std::size_t restarts = std::max<std::size_t>(1, options.num_restarts);

  using clock = std::chrono::steady_clock;
  std::vector<Placement> results(restarts);
  std::vector<double> seconds(restarts, 0.0);
  std::vector<std::exception_ptr> errors(restarts);
  const auto run_restart = [&](std::size_t r) {
    const auto start = clock::now();
    try {
      results[r] =
          anneal_one(problem, geom, index, options, options.seed + r, initial);
    } catch (...) {
      errors[r] = std::current_exception();
    }
    const std::chrono::duration<double> elapsed = clock::now() - start;
    seconds[r] = elapsed.count();
  };

  const std::size_t workers = effective_threads(options.num_threads, restarts);
  parallel_for_index(restarts, workers,
                     [&]() { return [&](std::size_t r) { run_restart(r); }; });
  // Re-raise in restart order (deterministic regardless of worker timing).
  for (std::size_t r = 0; r < restarts; ++r) {
    if (errors[r]) {
      std::rethrow_exception(errors[r]);
    }
  }

  // Best cost wins; ties break toward the lowest restart index, so the
  // winner never depends on which worker finished first.
  std::size_t best = 0;
  for (std::size_t r = 1; r < restarts; ++r) {
    if (results[r].cost < results[best].cost) {
      best = r;
    }
  }
  std::vector<RestartStat> stats(restarts);
  for (std::size_t r = 0; r < restarts; ++r) {
    stats[r] = RestartStat{options.seed + r, results[r].cost, seconds[r]};
  }
  Placement out = std::move(results[best]);
  out.restart_stats = std::move(stats);
  out.winning_restart = best;
  return out;
}

}  // namespace mcfpga::place
