#include "src/farm/resilient.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/common/rng.hpp"
#include "src/farm/queue.hpp"
#include "src/xpp/snapshot.hpp"

namespace rsp::farm {
namespace {

using Clock = std::chrono::steady_clock;

constexpr char kCheckpointMagic[8] = {'R', 'S', 'P', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kCheckpointVersion = 1;

/// One watchdogged kernel attempt.  The attempt thread owns copies of
/// everything it touches (kernel included) and publishes only into this
/// heap slot, so a deadline overrun can be abandoned by detaching: the
/// runaway thread keeps the slot alive through its shared_ptr and can
/// never reach campaign state.
struct AttemptSlot {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  TrialResult result;
  std::exception_ptr error;
};

struct AttemptOutcome {
  bool ok = false;
  bool timed_out = false;
  TrialResult result;
  std::string error;
};

AttemptOutcome run_attempt(const TrialKernel& kernel, std::uint64_t seed,
                           std::size_t index, double deadline_seconds) {
  AttemptOutcome out;
  if (deadline_seconds <= 0.0) {
    // No watchdog: run inline.
    try {
      out.result = kernel(seed, index);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
    return out;
  }

  auto slot = std::make_shared<AttemptSlot>();
  std::thread attempt([slot, kernel, seed, index] {
    TrialResult r;
    std::exception_ptr err;
    try {
      r = kernel(seed, index);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(slot->m);
    slot->result = r;
    slot->error = err;
    slot->done = true;
    slot->cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(slot->m);
  const bool finished = slot->cv.wait_for(
      lock, std::chrono::duration<double>(deadline_seconds),
      [&] { return slot->done; });
  if (!finished) {
    lock.unlock();
    attempt.detach();
    out.timed_out = true;
    std::ostringstream os;
    os << "deadline exceeded (" << deadline_seconds << " s)";
    out.error = os.str();
    return out;
  }
  if (slot->error) {
    try {
      std::rethrow_exception(slot->error);
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
  } else {
    out.result = slot->result;
    out.ok = true;
  }
  lock.unlock();
  attempt.join();
  return out;
}

void put_outcome(xpp::snap::Writer& w, const TaskOutcome& o,
                 const TrialResult& r) {
  w.u8(static_cast<std::uint8_t>(o.status));
  w.u32(static_cast<std::uint32_t>(o.attempts));
  w.str(o.error);
  w.u64(r.bits);
  w.u64(r.bit_errors);
  w.u64(r.frames);
  w.u64(r.frame_errors);
}

void get_outcome(xpp::snap::Reader& r, TaskOutcome& o, TrialResult& tr) {
  const std::uint8_t s = r.u8();
  if (s > static_cast<std::uint8_t>(TaskStatus::kTimedOut)) {
    throw xpp::SnapshotError("checkpoint: invalid task status " +
                             std::to_string(s));
  }
  o.status = static_cast<TaskStatus>(s);
  o.attempts = static_cast<int>(r.u32());
  o.error = r.str();
  tr.bits = r.u64();
  tr.bit_errors = r.u64();
  tr.frames = r.u64();
  tr.frame_errors = r.u64();
}

}  // namespace

const char* task_status_name(TaskStatus s) {
  switch (s) {
    case TaskStatus::kPending:   return "pending";
    case TaskStatus::kOk:        return "ok";
    case TaskStatus::kRetriedOk: return "retried-ok";
    case TaskStatus::kFailed:    return "failed";
    case TaskStatus::kTimedOut:  return "timed-out";
  }
  return "?";
}

std::string ResilientResult::report() const {
  std::ostringstream os;
  os << "campaign: " << outcomes.size() << " task(s), " << completed()
     << " completed, " << quarantined.size() << " quarantined, " << retries
     << " retried attempt(s), " << resumed_tasks << " resumed from checkpoint\n";
  for (const std::size_t i : quarantined) {
    const TaskOutcome& o = outcomes[i];
    os << "  quarantined task " << i << " [" << task_status_name(o.status)
       << ", " << o.attempts << " attempt(s)]: " << o.error << "\n";
  }
  return os.str();
}

std::string encode_campaign_checkpoint(const CampaignCheckpoint& ck) {
  xpp::snap::Writer w;
  w.u64(ck.base_seed);
  w.u64(ck.n_tasks);
  w.str(ck.tag);
  w.i64(ck.retries);
  for (std::uint64_t i = 0; i < ck.n_tasks; ++i) {
    put_outcome(w, ck.outcomes[static_cast<std::size_t>(i)],
                ck.per_task[static_cast<std::size_t>(i)]);
  }
  return xpp::snap::frame(kCheckpointMagic, kCheckpointVersion, w.bytes());
}

CampaignCheckpoint decode_campaign_checkpoint(const std::string& bytes) {
  const std::string_view payload =
      xpp::snap::unframe(kCheckpointMagic, kCheckpointVersion, bytes);
  xpp::snap::Reader r(payload);
  CampaignCheckpoint ck;
  ck.base_seed = r.u64();
  ck.n_tasks = r.u64();
  ck.tag = r.str();
  ck.retries = r.i64();
  ck.outcomes.resize(static_cast<std::size_t>(ck.n_tasks));
  ck.per_task.resize(static_cast<std::size_t>(ck.n_tasks));
  for (std::size_t i = 0; i < ck.outcomes.size(); ++i) {
    get_outcome(r, ck.outcomes[i], ck.per_task[i]);
  }
  if (!r.done()) {
    throw xpp::SnapshotError("checkpoint: " + std::to_string(r.remaining()) +
                             " trailing byte(s) after payload");
  }
  return ck;
}

void save_campaign_checkpoint(const std::string& path,
                              const CampaignCheckpoint& ck) {
  xpp::snap::write_file_atomic(path, encode_campaign_checkpoint(ck));
}

CampaignCheckpoint load_campaign_checkpoint(const std::string& path) {
  return decode_campaign_checkpoint(xpp::snap::read_file(path));
}

ResilientResult run_resilient(std::size_t n_tasks, std::uint64_t base_seed,
                              const TrialKernel& kernel,
                              const ResilientOptions& opts) {
  if (opts.max_attempts < 1) {
    throw std::invalid_argument("campaign: max_attempts must be >= 1; got " +
                                std::to_string(opts.max_attempts));
  }
  if (opts.deadline_seconds < 0.0) {
    throw std::invalid_argument("campaign: deadline_seconds must be >= 0");
  }
  if (opts.resume && opts.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "campaign: resume requires a checkpoint_path");
  }
  // Validates threads/queue_capacity and resolves the worker count.
  const ScenarioFarm farm(opts.farm);

  ResilientResult out;
  out.result.per_task.resize(n_tasks);
  out.outcomes.resize(n_tasks);
  const auto t0 = Clock::now();

  // state_mutex guards outcomes/per_task/retries for BOTH task
  // completion and checkpoint capture: a checkpoint reads every slot,
  // so per-slot ownership is not enough while it runs.
  std::mutex state_mutex;
  std::atomic<std::size_t> completed_count{0};

  if (opts.resume) {
    const CampaignCheckpoint ck =
        load_campaign_checkpoint(opts.checkpoint_path);
    if (ck.base_seed != base_seed || ck.n_tasks != n_tasks ||
        ck.tag != opts.tag) {
      throw xpp::SnapshotError(
          "checkpoint '" + opts.checkpoint_path +
          "' does not match this campaign (seed/tasks/tag " +
          std::to_string(ck.base_seed) + "/" + std::to_string(ck.n_tasks) +
          "/'" + ck.tag + "' vs " + std::to_string(base_seed) + "/" +
          std::to_string(n_tasks) + "/'" + opts.tag + "')");
    }
    for (std::size_t i = 0; i < n_tasks; ++i) {
      if (ck.outcomes[i].status == TaskStatus::kPending) continue;
      out.outcomes[i] = ck.outcomes[i];
      out.result.per_task[i] = ck.per_task[i];
      ++out.resumed_tasks;
    }
    out.retries = ck.retries;
    completed_count.store(out.resumed_tasks);
  }

  auto capture_checkpoint = [&] {
    // Caller holds state_mutex.
    CampaignCheckpoint ck;
    ck.base_seed = base_seed;
    ck.n_tasks = n_tasks;
    ck.tag = opts.tag;
    ck.retries = out.retries;
    ck.outcomes = out.outcomes;
    ck.per_task = out.result.per_task;
    return ck;
  };

  detail::BoundedQueue queue(opts.farm.queue_capacity);

  // Mid-run checkpoints are published one at a time, and only when they
  // cover more completed tasks than the last one published: a worker
  // whose capture is overtaken by a newer one drops it instead of
  // renaming an older file over a newer one.  A failed write stops the
  // campaign (no further task starts) and is rethrown after the join,
  // so an I/O error never escapes a worker thread.
  std::mutex publish_mutex;
  std::size_t published = 0;
  std::exception_ptr publish_error;
  std::atomic<bool> stop{false};
  auto publish = [&](const CampaignCheckpoint& ck, std::size_t done) {
    std::lock_guard<std::mutex> lock(publish_mutex);
    if (publish_error || done <= published) return;
    try {
      save_campaign_checkpoint(opts.checkpoint_path, ck);
      published = done;
    } catch (...) {
      publish_error = std::current_exception();
      stop.store(true);
      queue.close();
    }
  };

  auto worker = [&] {
    std::size_t index = 0;
    while (queue.pop(index)) {
      if (stop.load()) continue;  // drain: the campaign is failing
      const std::uint64_t seed = Rng::split(base_seed, index);
      TaskOutcome oc;
      TrialResult tr;
      bool last_timed_out = false;
      for (int attempt = 1; attempt <= opts.max_attempts; ++attempt) {
        const AttemptOutcome a =
            run_attempt(kernel, seed, index, opts.deadline_seconds);
        oc.attempts = attempt;
        if (a.ok) {
          oc.status = attempt == 1 ? TaskStatus::kOk : TaskStatus::kRetriedOk;
          oc.error.clear();
          tr = a.result;
          break;
        }
        oc.error = a.error;
        last_timed_out = a.timed_out;
      }
      if (oc.status == TaskStatus::kPending) {
        oc.status = last_timed_out ? TaskStatus::kTimedOut : TaskStatus::kFailed;
      }

      bool take_checkpoint = false;
      std::size_t done = 0;
      CampaignCheckpoint ck;
      {
        std::lock_guard<std::mutex> lock(state_mutex);
        out.outcomes[index] = oc;
        out.result.per_task[index] = tr;
        out.retries += oc.attempts - 1;
        done = completed_count.fetch_add(1) + 1;
        if (!opts.checkpoint_path.empty() && opts.checkpoint_every > 0 &&
            done % opts.checkpoint_every == 0 && done < n_tasks) {
          ck = capture_checkpoint();
          take_checkpoint = true;
        }
      }
      // File I/O outside the state lock, so trials keep completing
      // while a checkpoint is written; publish() orders the writers.
      if (take_checkpoint) publish(ck, done);
    }
  };

  // Zero tasks spawn zero workers (an empty campaign still finalises
  // its — empty — aggregate and checkpoint below).
  const int workers = n_tasks < static_cast<std::size_t>(farm.threads())
                          ? static_cast<int>(n_tasks)
                          : farm.threads();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  bool undispatched = false;
  for (std::size_t i = 0; i < n_tasks; ++i) {
    if (out.outcomes[i].status != TaskStatus::kPending) continue;  // resumed
    if (!queue.push(i)) {
      undispatched = true;  // close() raced the submit loop
      break;
    }
  }
  queue.close();
  for (auto& t : pool) t.join();
  if (publish_error) std::rethrow_exception(publish_error);
  if (undispatched) {
    throw FarmError(
        "farm: resilient campaign task was never dispatched (queue closed "
        "during push)");
  }

  // Order-independent finalisation: quarantine list and aggregate are
  // rebuilt serially in index order, so the end state is a pure
  // function of per-task outcomes — not of which thread ran what, and
  // not of how many sessions (resumes) it took to get here.
  for (std::size_t i = 0; i < n_tasks; ++i) {
    const TaskStatus s = out.outcomes[i].status;
    if (s == TaskStatus::kFailed || s == TaskStatus::kTimedOut) {
      out.quarantined.push_back(i);
      out.result.per_task[i] = TrialResult{};
    } else {
      out.result.agg.add(out.result.per_task[i]);
    }
  }
  if (!opts.checkpoint_path.empty()) {
    std::lock_guard<std::mutex> lock(state_mutex);
    save_campaign_checkpoint(opts.checkpoint_path, capture_checkpoint());
  }

  out.result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

}  // namespace rsp::farm
