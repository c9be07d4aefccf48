// Compile-as-a-service daemon: a long-running CompileDaemon owns the
// shared immutable compile state — the cache::CompileService with its
// content-addressed FlowCache / ArtifactCache — and serves compile jobs
// submitted as wire frames (serve/protocol.hpp) on a common/parallel.hpp
// WorkerPool.
//
// Each job is one Session driving the serve/session.hpp FSM.  submit()
// decodes the request synchronously (malformed frames throw, nothing is
// queued), fires Submit, and enqueues the job.  A worker fires Start,
// compiles through CompileService::compile — or compile_incremental when
// the request names a completed base job whose fabric it repeats — with a
// StageObserver that
//   - checks the session's cancel flag and deadline budget at every stage
//     boundary (cooperative: a job is never killed mid-mutation), and
//   - streams one encoded progress frame per finished stage (Progress);
//     a cache hit finishes one stage, "cache".
// Completion fires Finish / Cancel / Deadline / Fail; the reply frame is
// appended after every progress frame, so a session's frame stream reads
// progress*, reply.  The worker renders a finished job's reply frame
// before taking the daemon's lock, which only moves the frame into the
// stream.
//
// Repeat jobs hit the shared FlowCache (one lookup, a bit-identical
// design replay), and recently completed designs are retained — bounded —
// so later requests can delta-recompile from them by name.  Per-job memory is
// bounded too: a job drops its inputs once compiled, and wait() hands its
// frame stream out once, after which only the job's final FSM state
// remains.  Determinism contract: the reply bitstream for a given request
// is byte-identical to a direct CompileService::compile of the same
// inputs, for any worker count and any mix of concurrent sessions
// (tests/test_serve.cpp enforces it).
//
// In-process by design: ServeClient (serve/client.hpp) talks to the
// daemon through encoded frames, exercising the whole wire path without
// real sockets.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/incremental.hpp"
#include "common/parallel.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace mcfpga::serve {

struct DaemonOptions {
  /// Worker threads compiling jobs (>= 1; jobs queue beyond this).
  std::size_t workers = 2;
  /// Passed through to the shared cache::CompileService.
  cache::IncrementalOptions service{};
  /// Completed designs retained (FIFO, one per job name) as
  /// delta-recompile bases.
  std::size_t max_completed = 8;
};

/// One submitted job.  The daemon's mutex guards fsm / stream /
/// deadline_hit; `cancel` is an atomic so the stage observer reads it
/// without taking the lock on the hot path.
struct Session {
  std::uint64_t id = 0;
  /// netlist_text is dropped once parsed into `netlist`.
  CompileRequest request;
  /// Parsed at submit time, so malformed netlists never queue; dropped
  /// once the job's compile is over.
  netlist::MultiContextNetlist netlist;
  SessionFsm fsm;
  std::atomic<bool> cancel{false};
  bool deadline_hit = false;  ///< Observer saw the budget expire.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Encoded wire frames in stream order: progress*, then the reply.
  std::vector<std::string> stream;
  bool reply_ready = false;
};

class CompileDaemon {
 public:
  explicit CompileDaemon(DaemonOptions options = {});
  ~CompileDaemon();  // stop()s: cancels queued work, drains running work

  CompileDaemon(const CompileDaemon&) = delete;
  CompileDaemon& operator=(const CompileDaemon&) = delete;

  /// Decodes one request frame and queues the job.  Throws
  /// InvalidArgument (with a payload line number) on malformed frames —
  /// nothing is queued for those.  Returns the job id.
  std::uint64_t submit_frame(const std::string& frame);

  /// Requests cancellation: a Queued job is finalized immediately; a
  /// Running/Streaming job stops at its next stage boundary.  Returns
  /// false when the job is unknown or already terminal (the FSM rejects
  /// the event) — a cancel/finish race, not an error.
  bool cancel(std::uint64_t job_id);

  /// Blocks until the job is terminal; returns its frame stream
  /// (progress frames in stage order, then exactly one reply frame).  The
  /// stream is handed out once: the daemon then keeps only the job's
  /// final state (state() still answers), and a second wait() on the job
  /// throws InvalidArgument.
  std::vector<std::string> wait(std::uint64_t job_id);

  SessionState state(std::uint64_t job_id) const;

  struct Stats {
    std::size_t submitted = 0;
    std::size_t done = 0;
    std::size_t cancelled = 0;
    std::size_t failed = 0;
    /// Frame-stream bytes held for jobs whose stream wait() has not
    /// handed out yet.
    std::size_t retained_bytes = 0;
    /// Completed designs kept as delta bases (<= max_completed).
    std::size_t retained_designs = 0;
  };
  Stats stats() const;

  /// Cancels queued jobs, flags running ones, and drains the pool; the
  /// daemon keeps serving wait()/state() afterwards but rejects submits.
  void stop();

  /// The shared compile service (test access: cache counters, direct
  /// compiles for the determinism oracle).
  cache::CompileService& service() { return service_; }

 private:
  void run_job(const std::shared_ptr<Session>& session);
  /// Takes mu_ for finalize_locked.  A job's reply frame, bitstream and
  /// all, is built by the caller before the lock is taken.
  void finalize(const std::shared_ptr<Session>& session,
                SessionEvent event, std::string frame);
  /// Requires mu_ held: fires the terminal event, moves the reply frame
  /// into the stream, bumps stats, wakes waiters.  Idempotent under races.
  void finalize_locked(const std::shared_ptr<Session>& session,
                       SessionEvent event, std::string frame);
  std::shared_ptr<const cache::Compiled> find_completed(
      const std::string& job) const;
  void retain_completed(const std::string& job, cache::Compiled design);

  friend class JobObserver;

  DaemonOptions options_;
  cache::CompileService service_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  /// Jobs whose stream wait() handed out: only the final state remains.
  std::map<std::uint64_t, SessionState> finished_;
  /// Recently completed designs, at most one per job name (a resubmitted
  /// name moves to the back), FIFO-bounded by max_completed.
  std::deque<std::pair<std::string, std::shared_ptr<const cache::Compiled>>>
      completed_;
  std::uint64_t next_id_ = 1;
  Stats stats_;
  bool stopped_ = false;

  /// Last: its destructor drains tasks that touch everything above.
  WorkerPool pool_;
};

}  // namespace mcfpga::serve
