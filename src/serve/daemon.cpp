#include "serve/daemon.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "config/serialize.hpp"

namespace mcfpga::serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

CompileReply base_reply(const Session& session) {
  CompileReply reply;
  reply.job = session.request.job;
  return reply;
}

}  // namespace

/// The daemon's core::StageObserver: one per in-flight job, stack-local
/// to the worker running it.  on_stage_start is the cooperative
/// cancellation / deadline point; on_stage_done streams a progress frame.
class JobObserver final : public core::StageObserver {
 public:
  JobObserver(CompileDaemon& daemon, std::shared_ptr<Session> session)
      : daemon_(daemon), session_(std::move(session)) {}

  bool on_stage_start(const char* /*stage*/) override {
    if (session_->cancel.load(std::memory_order_relaxed)) {
      return false;
    }
    if (session_->has_deadline &&
        SteadyClock::now() > session_->deadline) {
      const std::lock_guard<std::mutex> lock(daemon_.mu_);
      session_->deadline_hit = true;
      return false;
    }
    return true;
  }

  void on_stage_done(const char* stage, double seconds) override {
    ProgressEvent event;
    event.job = session_->request.job;
    event.stage = stage;
    event.seconds = seconds;
    std::string frame = progress_frame(event);
    const std::lock_guard<std::mutex> lock(daemon_.mu_);
    // Running -> Streaming on the first tick, Streaming self-loop after;
    // a rejected event (the job was finalized under us) drops the frame.
    if (session_->fsm.handle(SessionEvent::kProgress).accepted) {
      session_->stream.push_back(std::move(frame));
    }
  }

 private:
  CompileDaemon& daemon_;
  std::shared_ptr<Session> session_;
};

CompileDaemon::CompileDaemon(DaemonOptions options)
    : options_(options),
      service_(options.service),
      pool_(std::max<std::size_t>(1, options.workers)) {}

CompileDaemon::~CompileDaemon() { stop(); }

std::uint64_t CompileDaemon::submit_frame(const std::string& frame) {
  const Frame decoded = frame_from_bytes(frame);
  MCFPGA_REQUIRE(decoded.type == FrameType::kRequest,
                 "submit_frame: frame is not a request");
  auto session = std::make_shared<Session>();
  session->request = decode_request(decoded.payload);
  // Parse the netlist up front: malformed jobs are rejected at submit
  // time with the serializer's line-numbered error, never queued.
  session->netlist = config::netlist_from_text(session->request.netlist_text);
  std::string().swap(session->request.netlist_text);  // parsed: spent
  if (session->request.deadline_ms != 0) {
    session->has_deadline = true;
    session->deadline = SteadyClock::now() +
                        std::chrono::milliseconds(session->request.deadline_ms);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  MCFPGA_REQUIRE(!stopped_, "submit_frame on a stopped daemon");
  session->id = next_id_++;
  session->fsm.handle(SessionEvent::kSubmit);
  sessions_.emplace(session->id, session);
  ++stats_.submitted;
  // Safe under mu_: the pool's lock is only ever taken after mu_ (here)
  // or with no locks held (workers run tasks unlocked).
  pool_.submit([this, session] { run_job(session); });
  return session->id;
}

bool CompileDaemon::cancel(std::uint64_t job_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(job_id);
  if (it == sessions_.end()) {
    return false;  // unknown, or finished and collected
  }
  const std::shared_ptr<Session>& session = it->second;
  switch (session->fsm.state()) {
    case SessionState::kQueued: {
      // No worker owns it yet: finalize here; run_job sees the terminal
      // FSM when the pool eventually pops the task and returns.
      session->cancel.store(true, std::memory_order_relaxed);
      CompileReply reply = base_reply(*session);
      reply.status = CompileReply::Status::kCancelled;
      finalize_locked(session, SessionEvent::kCancel, reply_frame(reply));
      return true;
    }
    case SessionState::kRunning:
    case SessionState::kStreaming:
      // The worker observes the flag at its next stage boundary and
      // finalizes with Cancel itself.
      session->cancel.store(true, std::memory_order_relaxed);
      return true;
    default:
      return false;  // terminal or never started: nothing to cancel
  }
}

std::vector<std::string> CompileDaemon::wait(std::uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto not_waitable = [&] {
    return InvalidArgument(
        finished_.count(job_id) != 0
            ? "wait: job " + std::to_string(job_id) +
                  "'s stream was already handed out"
            : "wait: unknown job " + std::to_string(job_id));
  };
  auto it = sessions_.find(job_id);
  if (it == sessions_.end()) {
    throw not_waitable();
  }
  const std::shared_ptr<Session> session = it->second;
  cv_.wait(lock, [&] { return session->reply_ready; });
  // A concurrent wait() on the same job may have taken the stream first.
  it = sessions_.find(job_id);
  if (it == sessions_.end()) {
    throw not_waitable();
  }
  // The stream is immutable once reply_ready is set, so handing it out is
  // a move; the job then shrinks to its final FSM state.
  std::vector<std::string> stream = std::move(session->stream);
  finished_.emplace(job_id, session->fsm.state());
  sessions_.erase(it);
  return stream;
}

SessionState CompileDaemon::state(std::uint64_t job_id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(job_id);
  if (it != sessions_.end()) {
    return it->second->fsm.state();
  }
  const auto done = finished_.find(job_id);
  MCFPGA_REQUIRE(done != finished_.end(),
                 "state: unknown job " + std::to_string(job_id));
  return done->second;
}

CompileDaemon::Stats CompileDaemon::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  for (const auto& [id, session] : sessions_) {
    for (const std::string& frame : session->stream) {
      s.retained_bytes += frame.size();
    }
  }
  s.retained_designs = completed_.size();
  return s;
}

void CompileDaemon::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    for (auto& [id, session] : sessions_) {
      switch (session->fsm.state()) {
        case SessionState::kQueued: {
          session->cancel.store(true, std::memory_order_relaxed);
          CompileReply reply = base_reply(*session);
          reply.status = CompileReply::Status::kCancelled;
          finalize_locked(session, SessionEvent::kCancel, reply_frame(reply));
          break;
        }
        case SessionState::kRunning:
        case SessionState::kStreaming:
          session->cancel.store(true, std::memory_order_relaxed);
          break;
        default:
          break;
      }
    }
  }
  // Drains the queue (cancelled jobs return immediately) and joins; the
  // running jobs stop at their next stage boundary.
  pool_.shutdown();
}

void CompileDaemon::run_job(const std::shared_ptr<Session>& session) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (session->fsm.terminal()) {
      return;  // cancelled (or failed) while still queued
    }
    if (session->has_deadline && SteadyClock::now() > session->deadline) {
      CompileReply reply = base_reply(*session);
      reply.status = CompileReply::Status::kFailed;
      reply.error = "deadline exceeded while queued";
      finalize_locked(session, SessionEvent::kDeadline, reply_frame(reply));
      return;
    }
    session->fsm.handle(SessionEvent::kStart);
  }

  JobObserver observer(*this, session);
  try {
    cache::Compiled compiled;
    if (!session->request.base_job.empty()) {
      const std::shared_ptr<const cache::Compiled> base =
          find_completed(session->request.base_job);
      MCFPGA_REQUIRE(base != nullptr,
                     "unknown base job '" + session->request.base_job + "'");
      // A delta recompile keeps its base's fabric, so a request naming
      // another one asks for something the delta path cannot do.
      MCFPGA_REQUIRE(session->request.fabric == base->spec,
                     "fabric differs from base job '" +
                         session->request.base_job + "'");
      compiled = service_.compile_incremental(
          *base, session->netlist, session->request.options, &observer);
    } else {
      compiled = service_.compile(session->netlist, session->request.fabric,
                                  session->request.options, &observer);
    }

    CompileReply reply = base_reply(*session);
    reply.status = CompileReply::Status::kDone;
    reply.cache_hits = compiled.design.cache.hits;
    reply.cache_misses = compiled.design.cache.misses;
    reply.delta = compiled.design.cache.delta;
    reply.delta_fallback = compiled.design.cache.delta_fallback;
    for (const core::ContextStats& cs : compiled.design.context_stats) {
      reply.critical_path = std::max(reply.critical_path, cs.critical_path);
    }
    reply.bitstream_text = config::to_text(compiled.design.full_bitstream);
    retain_completed(session->request.job, std::move(compiled));
    finalize(session, SessionEvent::kFinish, reply_frame(reply));
  } catch (const FlowCancelled& e) {
    CompileReply reply = base_reply(*session);
    const std::lock_guard<std::mutex> lock(mu_);
    if (session->deadline_hit) {
      reply.status = CompileReply::Status::kFailed;
      reply.error = std::string("deadline exceeded: ") + e.what();
      finalize_locked(session, SessionEvent::kDeadline, reply_frame(reply));
    } else {
      reply.status = CompileReply::Status::kCancelled;
      finalize_locked(session, SessionEvent::kCancel, reply_frame(reply));
    }
  } catch (const std::exception& e) {
    CompileReply reply = base_reply(*session);
    reply.status = CompileReply::Status::kFailed;
    reply.error = e.what();
    finalize(session, SessionEvent::kFail, reply_frame(reply));
  }
  // The parsed input is spent.  Only this worker ever reads it, so it is
  // freed here, outside the lock.
  session->netlist = netlist::MultiContextNetlist();
}

void CompileDaemon::finalize(const std::shared_ptr<Session>& session,
                             SessionEvent event, std::string frame) {
  const std::lock_guard<std::mutex> lock(mu_);
  finalize_locked(session, event, std::move(frame));
}

void CompileDaemon::finalize_locked(const std::shared_ptr<Session>& session,
                                    SessionEvent event, std::string frame) {
  if (session->reply_ready) {
    return;  // already finalized (cancel/finish race lost)
  }
  session->fsm.handle(event);
  session->stream.push_back(std::move(frame));
  session->reply_ready = true;
  switch (session->fsm.state()) {
    case SessionState::kDone:
      ++stats_.done;
      break;
    case SessionState::kCancelled:
      ++stats_.cancelled;
      break;
    case SessionState::kFailed:
      ++stats_.failed;
      break;
    default:
      break;
  }
  cv_.notify_all();
}

std::shared_ptr<const cache::Compiled> CompileDaemon::find_completed(
    const std::string& job) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, design] : completed_) {
    if (name == job) {
      return design;
    }
  }
  return nullptr;
}

void CompileDaemon::retain_completed(const std::string& job,
                                     cache::Compiled design) {
  auto retained = std::make_shared<const cache::Compiled>(std::move(design));
  // Evicted designs are freed after the lock is released: freeing a large
  // design would otherwise stall every worker's progress frames.
  std::vector<std::shared_ptr<const cache::Compiled>> evicted;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // A resubmitted job name replaces its older design, so one name takes
    // one slot and never pushes other names' delta bases out.
    const auto old = std::find_if(
        completed_.begin(), completed_.end(),
        [&](const auto& entry) { return entry.first == job; });
    if (old != completed_.end()) {
      evicted.push_back(std::move(old->second));
      completed_.erase(old);
    }
    completed_.emplace_back(job, std::move(retained));
    while (completed_.size() > options_.max_completed) {
      evicted.push_back(std::move(completed_.front().second));
      completed_.pop_front();
    }
  }
}

}  // namespace mcfpga::serve
