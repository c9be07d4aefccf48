// The three workloads.  Each is a closed loop: a caller sends its next
// operation only after the previous one returned.
//
//   cold_flow  one caller compiles a stratified seeded draw of distinct
//              designs through one CompileService (kInterleaved, timing
//              modes on).  Every key is new, so place and route do the
//              work and the cache only publishes and evicts.
//   edit_loop  one designer delta-recompiles a seeded chain of alternating
//              retable/rewire edits of a base design (compile_incremental,
//              cross-context routing off).  The single-threaded delta path
//              dominates; full place/route barely runs.
//   serve_mix  C client threads send encoded frames to an in-process
//              daemon: mostly repeats of warmed base designs (pure cache
//              hits), a few base_job deltas and a few cold designs.
//              Cache reads under concurrency, framing and queueing
//              dominate.
//
// Only the options the benchmark must pin are set (fabric, seed, timing
// modes, cross-context mode); every other knob keeps its default, so a
// change of default shows in the numbers without editing the benchmark.
#include <algorithm>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/serialize.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "workload/circuits.hpp"
#include "workload/edits.hpp"
#include "workload/random_dfg.hpp"

namespace perfbench {

using namespace mcfpga;

namespace {

constexpr std::size_t kContexts = 4;
constexpr std::size_t kMaxErrors = 5;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

arch::FabricSpec fabric() {
  arch::FabricSpec spec;
  spec.width = 4;
  spec.height = 4;
  spec.channel_width = 10;
  spec.double_length_tracks = 4;
  return spec;
}

core::CompileOptions options(route::CrossContextMode cross_context) {
  core::CompileOptions o;
  o.seed = 1;
  o.placer.timing_mode = true;
  o.router.timing_mode = true;
  o.router.cross_context_mode = cross_context;
  return o;
}

netlist::MultiContextNetlist random_design(std::size_t nodes, double share,
                                           std::uint64_t seed) {
  workload::RandomMultiContextParams p;
  p.base.num_nodes = nodes;
  p.base.seed = seed;
  p.num_contexts = kContexts;
  p.share_fraction = share;
  return workload::random_multi_context(p);
}

void record_error(PassResult& r, const std::string& what) {
  ++r.failed;
  if (r.errors.size() < kMaxErrors) {
    r.errors.push_back(what);
  }
}

void add_cache_counts(Counts& counts, const cache::FlowCache::Stats& before,
                      const cache::FlowCache::Stats& after) {
  counts["cache.hits"] +=
      static_cast<double>(after.counters.hits - before.counters.hits);
  counts["cache.misses"] +=
      static_cast<double>(after.counters.misses - before.counters.misses);
  counts["cache.evictions"] += static_cast<double>(
      after.counters.evictions - before.counters.evictions);
}

/// Delta-path outcome of one edit recompile.
void add_edit_counts(Counts& counts, bool delta, const std::string& fallback) {
  counts["incremental.edits"] += 1.0;
  counts["incremental.deltas"] += delta ? 1.0 : 0.0;
  if (!fallback.empty()) {
    counts["incremental.fallbacks"] += 1.0;
    counts["incremental.fallback." + fallback_slug(fallback)] += 1.0;
  }
}

/// Whether every fanin source of `node` keeps another reader (a LUT or an
/// output) in each context where `node` is a LUT op, so rewiring one of
/// its fanins moves a connection without leaving logic or I/O unused.
bool sources_survive_rewire(const netlist::MultiContextNetlist& nl,
                            std::size_t node) {
  for (std::size_t c = 0; c < nl.num_contexts(); ++c) {
    const netlist::Dfg& dfg = nl.context(c);
    if (node >= dfg.num_nodes() ||
        dfg.node(static_cast<netlist::NodeRef>(node)).type !=
            netlist::NodeType::kLutOp) {
      continue;
    }
    std::vector<std::size_t> readers(dfg.num_nodes(), 0);
    for (const netlist::DfgNode& n : dfg.nodes()) {
      for (const netlist::NodeRef f : n.fanins) {
        ++readers[static_cast<std::size_t>(f)];
      }
    }
    for (const netlist::DfgOutput& o : dfg.outputs()) {
      ++readers[static_cast<std::size_t>(o.node)];
    }
    for (const netlist::NodeRef f :
         dfg.node(static_cast<netlist::NodeRef>(node)).fanins) {
      if (readers[static_cast<std::size_t>(f)] < 2) {
        return false;
      }
    }
  }
  return true;
}

/// A LUT-op node of context 0 drawn from `rng`: an edit on any other node
/// is a no-op and would turn the recompile into a pure cache hit.  Rewire
/// targets also keep their sources alive (the common incremental edit;
/// deleting logic changes the clustering and always falls back).
std::size_t pick_edit_node(const netlist::MultiContextNetlist& nl, Rng& rng,
                           bool rewire) {
  std::vector<std::size_t> candidates;
  const netlist::Dfg& dfg = nl.context(0);
  for (std::size_t i = 2; i < dfg.num_nodes(); ++i) {
    if (dfg.node(static_cast<netlist::NodeRef>(i)).type ==
            netlist::NodeType::kLutOp &&
        (!rewire || sources_survive_rewire(nl, i))) {
      candidates.push_back(i);
    }
  }
  MCFPGA_REQUIRE(!candidates.empty(), "edit workload: no editable LUT node");
  return candidates[rng.next_below(candidates.size())];
}

/// Judges each op's output on the first pass and checks that later passes
/// reproduce it bit for bit, so the simulation runs once per distinct
/// output.  Always called outside the timed region.
class OpOracle {
 public:
  /// Checks op `i`; returns its verdict, or nullopt after recording why
  /// the output is wrong.
  std::optional<Verdict> check(std::size_t i,
                               const core::CompiledDesign& design,
                               const netlist::MultiContextNetlist& input,
                               PassResult& r) {
    if (verdicts_.size() <= i) {
      verdicts_.resize(i + 1);
    }
    if (!verdicts_[i]) {
      verdicts_[i] = judge(design, input);
    } else if (bitstream_digest(config::to_text(design.full_bitstream)) !=
               verdicts_[i]->digest) {
      record_error(r, "op " + std::to_string(i) +
                          ": output differs from the first pass");
      return std::nullopt;
    }
    if (verdicts_[i]->mismatches != 0) {
      record_error(r, "op " + std::to_string(i) + ": " +
                          std::to_string(verdicts_[i]->mismatches) +
                          " simulated outputs differ from the reference");
      return std::nullopt;
    }
    return verdicts_[i];
  }

 private:
  std::vector<std::optional<Verdict>> verdicts_;
};

// --- cold_flow ---------------------------------------------------------------

class ColdFlow final : public Workload {
 public:
  explicit ColdFlow(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // Sizes and share fractions are stratified over 16..32 LUT nodes and
    // 0..0.4 rather than drawn, so the mix is the same for every seed and
    // only the random structure changes; every fourth design is a
    // pipeline_workload of a rotating width.  Many small designs rather
    // than a few large ones keep the run-to-run spread across seeds low.
    constexpr std::size_t kDesigns = 64;
    constexpr std::size_t kRandom = kDesigns - kDesigns / 4;
    static const std::size_t kWidths[] = {8, 12, 16, 20, 24, 28, 32, 36};
    designs_.clear();
    std::size_t j = 0;
    for (std::size_t i = 0; i < kDesigns; ++i) {
      if (i % 4 == 3) {
        designs_.push_back(
            workload::pipeline_workload(kContexts, kWidths[(i / 4) % 8]));
        continue;
      }
      const std::size_t nodes = 16 + (16 * j) / (kRandom - 1);
      const double share =
          0.4 * static_cast<double>((j * 7) % kRandom) / (kRandom - 1);
      designs_.push_back(random_design(nodes, share, mix(seed_, i)));
      ++j;
    }
    service_ = std::make_unique<cache::CompileService>();
    // Warm-up compile of a fixed design outside the draw: faults in code
    // and allocator pools before the first timed op.
    service_->compile(workload::pipeline_workload(kContexts, 24), fabric(),
                      options_);
  }

  PassResult run(bool traced) override {
    PassResult r;
    r.traced = traced;
    StageSpans spans(service_->flow_cache());
    const auto before = service_->flow_cache().stats();
    for (std::size_t i = 0; i < designs_.size(); ++i) {
      ++r.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        const cache::Compiled c = service_->compile(
            designs_[i], fabric(), options_, traced ? &spans : nullptr);
        const Clock::time_point t1 = Clock::now();
        r.op_ms.push_back(ms_between(t0, t1));
        r.timed_s += ms_between(t0, t1) / 1000.0;
        spans.flush(r.spans);
        if (const auto v = oracle_.check(i, c.design, designs_[i], r)) {
          add_design_counts(r.counts, c.design, v->decoder_ses);
        }
      } catch (const std::exception& e) {
        record_error(r, "op " + std::to_string(i) + ": " + e.what());
      }
    }
    add_cache_counts(r.counts, before, service_->flow_cache().stats());
    return r;
  }

 private:
  std::uint64_t seed_;
  core::CompileOptions options_ =
      options(route::CrossContextMode::kInterleaved);
  std::vector<netlist::MultiContextNetlist> designs_;
  std::unique_ptr<cache::CompileService> service_;
  OpOracle oracle_;
};

// --- edit_loop ---------------------------------------------------------------

class EditLoop final : public Workload {
 public:
  explicit EditLoop(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    // Short chains of three retables and one rewire, each starting again
    // from the base, so every edited design stays a few edits from the
    // base and QoR does not drift with the seed.  Retables take the delta
    // path; rewires here mostly fall back to a full compile.  The 3:1 mix
    // keeps p50 inside the delta population and p90 inside the fallback
    // one, so neither percentile straddles the two.
    constexpr std::size_t kEdits = 48;
    // A fixed random base (random logic has the fanout that lets a rewire
    // keep every source alive); the seed draws the edits.
    chain_.assign(1, random_design(32, 0.25, 7));
    Rng rng(mix(seed_, 0));
    for (std::size_t k = 0; k < kEdits; ++k) {
      const netlist::MultiContextNetlist& nl =
          k % kChain == 0 ? chain_.front() : chain_.back();
      const bool rewire = k % kChain == kChain - 1;
      const std::size_t node = pick_edit_node(nl, rng, rewire);
      const std::uint64_t edit_seed = rng.next_u64();
      chain_.push_back(rewire ? workload::rewire_edit(nl, node, edit_seed)
                              : workload::retable_edit(nl, node, edit_seed));
    }
    service_ = std::make_unique<cache::CompileService>();
    base_ = service_->compile(chain_.front(), fabric(), options_);
  }

  PassResult run(bool traced) override {
    PassResult r;
    r.traced = traced;
    StageSpans spans(service_->flow_cache());
    const auto before = service_->flow_cache().stats();
    cache::Compiled current;
    for (std::size_t k = 1; k < chain_.size(); ++k) {
      ++r.attempted;
      if ((k - 1) % kChain == 0) {
        current = base_;
      }
      try {
        const Clock::time_point t0 = Clock::now();
        cache::Compiled next = service_->compile_incremental(
            current, chain_[k], options_, traced ? &spans : nullptr);
        const Clock::time_point t1 = Clock::now();
        r.op_ms.push_back(ms_between(t0, t1));
        r.timed_s += ms_between(t0, t1) / 1000.0;
        spans.flush(r.spans);
        if (const auto v = oracle_.check(k, next.design, chain_[k], r)) {
          add_design_counts(r.counts, next.design, v->decoder_ses);
        }
        add_edit_counts(r.counts, next.design.cache.delta,
                        next.design.cache.delta_fallback);
        current = std::move(next);
      } catch (const std::exception& e) {
        record_error(r, "edit " + std::to_string(k) + ": " + e.what());
      }
    }
    add_cache_counts(r.counts, before, service_->flow_cache().stats());
    return r;
  }

 private:
  static constexpr std::size_t kChain = 4;

  std::uint64_t seed_;
  core::CompileOptions options_ = options(route::CrossContextMode::kOff);
  /// chain_[0] is the base design; chain_[k] is edit k applied to the
  /// base (k - 1 a multiple of kChain) or to chain_[k - 1].
  std::vector<netlist::MultiContextNetlist> chain_;
  std::unique_ptr<cache::CompileService> service_;
  cache::Compiled base_;
  OpOracle oracle_;
};

// --- serve_mix ---------------------------------------------------------------

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed)
      : seed_(seed),
        clients_(std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                         1, 4)) {}

  void setup() override {
    build_jobs();
    serve::DaemonOptions d;
    d.workers = clients_;
    daemon_ = std::make_unique<serve::CompileDaemon>(d);
    for (std::size_t b = 0; b < kBases; ++b) {
      daemon_->wait(daemon_->submit_frame(serve::request_frame(jobs_[b].request)));
    }
  }

  PassResult run(bool traced) override {
    if (expected_.empty()) {
      build_oracle();
    }
    // Units (a repeat, a cold design, or a base refresh followed by a
    // delta from it) are shuffled once per seed and dealt round-robin.
    std::vector<std::vector<std::size_t>> per_client(clients_);
    for (std::size_t u = 0; u < units_.size(); ++u) {
      auto& ops = per_client[u % clients_];
      ops.insert(ops.end(), units_[u].begin(), units_[u].end());
    }
    std::vector<PassResult> partial(clients_);
    const auto before = daemon_->service().flow_cache().stats();
    const Clock::time_point start = Clock::now();
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < clients_; ++c) {
        threads.emplace_back([this, traced, &ops = per_client[c],
                              &out = partial[c]] {
          for (const std::size_t job : ops) {
            run_op(job, traced, out);
          }
        });
      }
    }
    PassResult r;
    r.traced = traced;
    r.timed_s = ms_between(start, Clock::now()) / 1000.0;
    for (PassResult& p : partial) {
      r.op_ms.insert(r.op_ms.end(), p.op_ms.begin(), p.op_ms.end());
      r.attempted += p.attempted;
      r.failed += p.failed;
      for (std::string& e : p.errors) {
        if (r.errors.size() < kMaxErrors) {
          r.errors.push_back(std::move(e));
        }
      }
      for (const auto& [k, v] : p.counts) {
        r.counts[k] += v;
      }
      for (const auto& [k, v] : p.spans) {
        r.spans[k] += v;
      }
      for (const auto& [k, v] : p.gauges) {
        r.gauges[k] += v;
      }
    }
    // Pass totals, not the replies' hit/miss fields: a reply counts every
    // job that touched the shared cache while it ran.
    add_cache_counts(r.counts, before, daemon_->service().flow_cache().stats());
    return r;
  }

 private:
  static constexpr std::size_t kBases = 3;
  static constexpr std::size_t kRepeatsPerBase = 14;
  static constexpr std::size_t kDeltas = 3;
  static constexpr std::size_t kColds = 2;

  struct Job {
    serve::CompileRequest request;
    netlist::MultiContextNetlist netlist;
    bool repeat = false;   ///< A warmed base: every stage is a cache hit.
    std::size_t base = 0;  ///< Delta jobs: index of the base job.
  };

  /// A job's reply as a direct CompileService compile produces it.
  struct Expected {
    std::string bitstream;
    bool delta = false;
    Counts qor;
  };

  void build_jobs() {
    jobs_.clear();
    units_.clear();
    const core::CompileOptions o = options(route::CrossContextMode::kOff);
    static const std::size_t kBaseWidths[kBases] = {12, 16, 20};
    for (std::size_t b = 0; b < kBases; ++b) {
      Job j;
      j.netlist = workload::pipeline_workload(kContexts, kBaseWidths[b]);
      j.repeat = true;
      j.request = serve::ServeClient::make_request(
          "base-" + std::to_string(b), j.netlist, fabric(), o);
      jobs_.push_back(std::move(j));
    }
    Rng rng(mix(seed_, 0));
    for (std::size_t d = 0; d < kDeltas; ++d) {
      Job j;
      j.base = d % kBases;
      const netlist::MultiContextNetlist& base = jobs_[j.base].netlist;
      const std::size_t node = pick_edit_node(base, rng, false);
      j.netlist = workload::retable_edit(base, node, rng.next_u64());
      j.request = serve::ServeClient::make_request(
          "delta-" + std::to_string(d), j.netlist, fabric(), o, 0,
          jobs_[j.base].request.job);
      jobs_.push_back(std::move(j));
    }
    // Cold designs are retabled variants of the bases sent without a
    // base job: every stage misses, at a cost that does not swing with
    // the seed the way a fresh random design's would.
    for (std::size_t c = 0; c < kColds; ++c) {
      Job j;
      const netlist::MultiContextNetlist& base = jobs_[c % kBases].netlist;
      const std::size_t node = pick_edit_node(base, rng, false);
      j.netlist = workload::retable_edit(base, node, rng.next_u64());
      j.request = serve::ServeClient::make_request(
          "cold-" + std::to_string(c), j.netlist, fabric(), o);
      jobs_.push_back(std::move(j));
    }

    for (std::size_t b = 0; b < kBases; ++b) {
      for (std::size_t k = 0; k < kRepeatsPerBase; ++k) {
        units_.push_back({b});
      }
    }
    for (std::size_t d = 0; d < kDeltas; ++d) {
      units_.push_back({jobs_[kBases + d].base, kBases + d});
    }
    for (std::size_t c = 0; c < kColds; ++c) {
      units_.push_back({kBases + kDeltas + c});
    }
    for (std::size_t u = units_.size(); u > 1; --u) {
      std::swap(units_[u - 1], units_[rng.next_below(u)]);
    }
  }

  /// Direct, daemon-free compiles of every job: the byte-identity oracle.
  void build_oracle() {
    cache::CompileService direct;
    std::vector<cache::Compiled> bases;
    for (const Job& j : jobs_) {
      const core::CompileOptions& o = j.request.options;
      cache::Compiled c =
          j.request.base_job.empty()
              ? direct.compile(j.netlist, j.request.fabric, o)
              : direct.compile_incremental(bases[j.base], j.netlist, o);
      const Verdict v = judge(c.design, j.netlist);
      MCFPGA_CHECK(v.mismatches == 0,
                   "serve_mix oracle for " + j.request.job +
                       " fails simulation");
      Expected e;
      e.bitstream = config::to_text(c.design.full_bitstream);
      e.delta = c.design.cache.delta;
      Counts all;
      add_design_counts(all, c.design, v.decoder_ses);
      for (const char* key : {"qor_crit_path", "qor_wirelength",
                              "qor_xctx_conflicts", "qor_decoder_ses"}) {
        e.qor[key] = all[key];
      }
      expected_.push_back(std::move(e));
      if (bases.size() < kBases) {
        bases.push_back(std::move(c));
      }
    }
  }

  void run_op(std::size_t index, bool traced, PassResult& out) {
    const Job& job = jobs_[index];
    const Expected& want = expected_[index];
    ++out.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      const std::string frame = serve::request_frame(job.request);
      const Clock::time_point t1 = traced ? Clock::now() : t0;
      const std::vector<std::string> stream =
          daemon_->wait(daemon_->submit_frame(frame));
      const Clock::time_point t2 = traced ? Clock::now() : t0;
      std::vector<serve::ProgressEvent> progress;
      serve::CompileReply reply;
      for (const std::string& bytes : stream) {
        const serve::Frame f = serve::frame_from_bytes(bytes);
        if (f.type == serve::FrameType::kProgress) {
          progress.push_back(serve::decode_progress(f.payload));
        } else {
          reply = serve::decode_reply(f.payload);
        }
      }
      const Clock::time_point t3 = Clock::now();
      out.op_ms.push_back(ms_between(t0, t3));

      if (reply.status != serve::CompileReply::Status::kDone ||
          reply.bitstream_text != want.bitstream ||
          reply.delta != want.delta) {
        record_error(out, "job " + job.request.job + ": reply (" +
                              serve::to_string(reply.status) + " " +
                              reply.error +
                              ") is not byte-identical to the direct compile");
        return;
      }
      for (const auto& [k, v] : want.qor) {
        out.counts[k] += v;
      }
      out.gauges["serve.reply_bytes"] += static_cast<double>(stream.back().size());
      if (!job.request.base_job.empty()) {
        add_edit_counts(out.counts, reply.delta, reply.delta_fallback);
      }
      if (traced) {
        double stage_ms = 0.0;
        for (const serve::ProgressEvent& p : progress) {
          out.spans[stage_span(p.stage, job.repeat)] += p.seconds * 1000.0;
          stage_ms += p.seconds * 1000.0;
        }
        out.spans["serve.encode_request_ms"] += ms_between(t0, t1);
        out.spans["serve.overhead_ms"] += ms_between(t1, t2) - stage_ms;
        out.spans["serve.decode_reply_ms"] += ms_between(t2, t3);
      }
    } catch (const std::exception& e) {
      record_error(out, "job " + job.request.job + ": " + e.what());
    }
  }

  std::uint64_t seed_;
  std::size_t clients_;
  /// Bases first, then deltas, then cold designs.
  std::vector<Job> jobs_;
  std::vector<std::vector<std::size_t>> units_;
  /// Parallel to jobs_; computed once, on the first pass.
  std::vector<Expected> expected_;
  std::unique_ptr<serve::CompileDaemon> daemon_;
};

}  // namespace

std::unique_ptr<Workload> make_cold_flow(std::uint64_t seed) {
  return std::make_unique<ColdFlow>(seed);
}

std::unique_ptr<Workload> make_edit_loop(std::uint64_t seed) {
  return std::make_unique<EditLoop>(seed);
}

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench
