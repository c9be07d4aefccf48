// perfbench: the repo benchmark program.
//
//   perfbench --workload cold_flow|edit_loop|serve_mix --seed N
//             --seconds S --trace 0|1 [--source-id ID]
//
// Runs passes of the workload's seeded op sequence until S seconds of ops
// have been timed (and at least two passes ran), then prints a host
// block, a human-readable report and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics from untraced passes.
// --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics; the traced-vs-untraced p50 gap is the tracing
// overhead.  Every pass must reproduce the first pass's deterministic
// values (QoR sums, work counters, output bits) exactly; any difference,
// wrong output or failed op makes the run incorrect and the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload cold_flow|edit_loop|serve_mix"
               " --seed N --seconds S --trace 0|1 [--source-id ID]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--source-id") {
        a.source_id = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    usage("--workload and a positive --seconds are required");
  }
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Ops and op latencies of the passes with the given traced flag.
struct Sample {
  std::size_t ops = 0;
  double timed_s = 0.0;
  std::vector<double> op_ms;
  Spans spans;
};

Sample collect(const std::vector<PassResult>& passes, bool traced) {
  Sample s;
  for (const PassResult& p : passes) {
    if (p.traced != traced) {
      continue;
    }
    s.ops += p.op_ms.size();
    s.timed_s += p.timed_s;
    s.op_ms.insert(s.op_ms.end(), p.op_ms.begin(), p.op_ms.end());
    for (const auto& [k, v] : p.spans) {
      s.spans[k] += v;
    }
  }
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end(const std::vector<PassResult>& passes) {
  const Sample s = collect(passes, false);
  std::vector<double> setups;
  for (const PassResult& p : passes) {
    setups.push_back(p.setup_s);
  }
  const Counts& c = passes.front().counts;
  const auto count = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  std::cout << "op samples: " << s.ops << " untraced ops over "
            << passes.size() << " passes\n";
  return {
      {"setup_s", quantile(setups, 0.5), "s"},
      {"ops_per_s", ratio(static_cast<double>(s.ops), s.timed_s), "1/s"},
      {"op_ms_p50", quantile(s.op_ms, 0.5), "ms"},
      {"op_ms_p90", quantile(s.op_ms, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"qor_crit_path", count("qor_crit_path"), "SE"},
      {"qor_wirelength", count("qor_wirelength"), "nodes"},
      {"qor_xctx_conflicts", count("qor_xctx_conflicts"), "nodes"},
      {"qor_decoder_ses", count("qor_decoder_ses"), "SE"},
  };
}

std::vector<Metric> per_layer(const std::vector<PassResult>& passes) {
  const Sample traced = collect(passes, true);
  const Sample plain = collect(passes, false);
  const Counts& c = passes.front().counts;
  const auto count = [&c](const std::string& key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(std::max<std::size_t>(1, traced.ops));
  const auto per_op = [&](const std::string& span) {
    const auto it = traced.spans.find(span);
    return it == traced.spans.end() ? 0.0 : it->second / ops;
  };

  double restore_ms = 0.0;
  double span_ms = 0.0;
  for (const auto& [k, v] : traced.spans) {
    span_ms += v;
    if (k.starts_with("cache.restore_")) {
      restore_ms += v / ops;
    }
  }
  const double wall_ms =
      std::accumulate(traced.op_ms.begin(), traced.op_ms.end(), 0.0);
  double reply_bytes = 0.0;
  double all_ops = 0.0;
  for (const PassResult& p : passes) {
    const auto it = p.gauges.find("serve.reply_bytes");
    reply_bytes += it == p.gauges.end() ? 0.0 : it->second;
    all_ops += static_cast<double>(p.op_ms.size());
  }

  std::vector<Metric> m = {
      {"mapping.tech_map_ms", per_op("mapping.tech_map_ms"), "ms"},
      {"mapping.sharing_ms", per_op("mapping.sharing_ms"), "ms"},
      {"mapping.plane_alloc_ms", per_op("mapping.plane_alloc_ms"), "ms"},
      {"cluster.ms", per_op("cluster.ms"), "ms"},
      {"place.ms", per_op("place.ms"), "ms"},
      {"place.restarts", count("place.restarts"), "count"},
      {"route.ms", per_op("route.ms"), "ms"},
      {"route.nodes_expanded", count("route.nodes_expanded"), "count"},
      {"route.heap_pushes", count("route.heap_pushes"), "count"},
      {"route.stale_pops", count("route.stale_pops"), "count"},
      {"route.waves", count("route.waves"), "count"},
      {"route.waves_kept_frac",
       ratio(count("route.waves_kept"), count("route.waves")), "frac"},
      {"route.nets_rerouted", count("route.nets_rerouted"), "count"},
      {"route.spec_hits", count("route.spec_hits"), "count"},
      {"route.spec_aborts", count("route.spec_aborts"), "count"},
      {"route.spec_hit_frac",
       ratio(count("route.spec_hits"),
             count("route.spec_hits") + count("route.spec_aborts")),
       "frac"},
      {"timing.ms", per_op("timing.ms"), "ms"},
      {"program.ms", per_op("program.ms"), "ms"},
      {"program.rows_reused", count("program.rows_reused"), "count"},
      {"program.rows_reprogrammed", count("program.rows_reprogrammed"),
       "count"},
      {"cache.hits", count("cache.hits"), "count"},
      {"cache.misses", count("cache.misses"), "count"},
      {"cache.evictions", count("cache.evictions"), "count"},
      {"cache.hit_frac",
       ratio(count("cache.hits"), count("cache.hits") + count("cache.misses")),
       "frac"},
      {"cache.restore_place_ms", per_op("cache.restore_place_ms"), "ms"},
      {"cache.restore_route_ms", per_op("cache.restore_route_ms"), "ms"},
      {"cache.restore_program_ms", per_op("cache.restore_program_ms"), "ms"},
      {"cache.restore_ms", restore_ms, "ms"},
      {"incremental.delta_frac",
       ratio(count("incremental.deltas"), count("incremental.edits")), "frac"},
      {"incremental.fallbacks", count("incremental.fallbacks"), "count"},
  };
  for (const char* slug : kFallbackSlugs) {
    const std::string name = std::string("incremental.fallback.") + slug;
    m.push_back({name, count(name), "count"});
  }
  const std::vector<Metric> tail = {
      {"incremental.nets_invalidated", count("incremental.nets_invalidated"),
       "count"},
      {"incremental.nets_rerouted", count("incremental.nets_rerouted"),
       "count"},
      {"incremental.anneal_moves_saved",
       count("incremental.anneal_moves_saved"), "count"},
      {"serve.encode_request_ms", per_op("serve.encode_request_ms"), "ms"},
      {"serve.decode_reply_ms", per_op("serve.decode_reply_ms"), "ms"},
      {"serve.reply_bytes", ratio(reply_bytes, all_ops), "bytes"},
      {"serve.overhead_ms", per_op("serve.overhead_ms"), "ms"},
      {"unattributed_ms", (wall_ms - span_ms) / ops, "ms"},
      {"trace.span_coverage", ratio(span_ms, wall_ms), "frac"},
      {"trace.overhead_frac",
       ratio(quantile(traced.op_ms, 0.5), quantile(plain.op_ms, 0.5)) - 1.0,
       "frac"},
  };
  m.insert(m.end(), tail.begin(), tail.end());

  // Self time per layer: stage spans never nest, so a span's self time is
  // its duration; the op's own self time is what no span covers.
  std::cout << "traced self time per op (" << traced.ops << " traced ops, "
            << number(wall_ms / ops) << " ms/op):\n";
  for (const auto& [name, total] : traced.spans) {
    std::printf("  %-28s %10.4f ms  %6.2f%%\n", name.c_str(), total / ops,
                100.0 * ratio(total, wall_ms));
  }
  std::printf("  %-28s %10.4f ms  %6.2f%%\n", "unattributed_ms",
              (wall_ms - span_ms) / ops,
              100.0 * ratio(wall_ms - span_ms, wall_ms));
  std::cout << "tracing overhead: op_ms_p50 traced "
            << number(quantile(traced.op_ms, 0.5)) << " vs untraced "
            << number(quantile(plain.op_ms, 0.5)) << "\n";
  return m;
}

/// Every pass must reproduce the first pass's deterministic values.
std::size_t steadiness_diffs(const std::vector<PassResult>& passes) {
  std::size_t diffs = 0;
  const Counts& first = passes.front().counts;
  for (std::size_t p = 1; p < passes.size(); ++p) {
    Counts keys = first;
    keys.insert(passes[p].counts.begin(), passes[p].counts.end());
    for (const auto& [key, unused] : keys) {
      const auto a = first.find(key);
      const auto b = passes[p].counts.find(key);
      const double va = a == first.end() ? 0.0 : a->second;
      const double vb = b == passes[p].counts.end() ? 0.0 : b->second;
      if (va != vb) {
        std::cout << "STEADINESS DIFF pass " << p << " " << key << ": "
                  << number(va) << " != " << number(vb) << "\n";
        ++diffs;
      }
    }
  }
  return diffs;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload;
  if (args.workload == "cold_flow") {
    workload = make_cold_flow(args.seed);
  } else if (args.workload == "edit_loop") {
    workload = make_edit_loop(args.seed);
  } else if (args.workload == "serve_mix") {
    workload = make_serve_mix(args.seed);
  } else {
    usage("unknown workload " + args.workload);
  }

  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"g++ " << __VERSION__ << "\" build_type="
            << PERFBENCH_BUILD_TYPE << " source=" << args.source_id
            << " workload=" << args.workload << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << "\n";

  // Passes alternate untraced / traced in trace mode.  The wall-clock cap
  // bounds the run on a pathologically slow host.
  const Clock::time_point start = Clock::now();
  const double wall_cap_s = args.seconds * 3.0 + 60.0;
  std::vector<PassResult> passes;
  double timed_s = 0.0;
  while (passes.size() < 2 || timed_s < args.seconds) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    workload->setup();
    const double setup_s = ms_between(t0, Clock::now()) / 1000.0;
    PassResult pass = workload->run(traced);
    pass.setup_s = setup_s;
    std::cout << "pass " << passes.size() << (traced ? " traced" : "")
              << ": " << pass.op_ms.size() << " ops in "
              << number(pass.timed_s) << " s, setup " << number(setup_s)
              << " s\n";
    timed_s += pass.timed_s;
    passes.push_back(std::move(pass));
    if (ms_between(start, Clock::now()) / 1000.0 > wall_cap_s &&
        passes.size() >= 2) {
      std::cout << "wall-clock cap reached after " << passes.size()
                << " passes\n";
      break;
    }
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& e : p.errors) {
      std::cout << "FAILED " << e << "\n";
    }
  }
  const std::size_t diffs = steadiness_diffs(passes);
  const bool correct = failed == 0 && diffs == 0;

  const std::vector<Metric> metrics =
      args.trace ? per_layer(passes) : end_to_end(passes);
  std::cout << "op_fail_frac: "
            << number(ratio(static_cast<double>(failed),
                            static_cast<double>(std::max<std::size_t>(
                                1, attempted))))
            << " (" << failed << " of " << attempted << ")\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::size_t>(1, attempted)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
