// Lock-rank deadlock prevention.
//
// Every mutex in dshuf carries a LockRank; a thread may only acquire a
// mutex whose rank is STRICTLY greater than every rank it already holds.
// Acquisitions therefore always form an ascending chain, which makes a
// cross-thread acquisition cycle (the deadlock precondition) impossible.
// The project-wide order, documented in DESIGN.md §8, is
//
//   comm.mailbox < comm.request < comm.barrier < comm.fault
//       < shuffle.plan_cache < data.batch_loader < io.file_store
//       < obs.registry < util.log
//
// i.e. the comm layer is lowest (its locks are the innermost of the
// instrumented modules) and the logger is highest (logging is always
// safe, whatever you hold).
//
// Checking is compiled in when DSHUF_LOCK_RANK_CHECKS is defined (the
// default build does this; configure with -DDSHUF_LOCK_RANK_CHECKS=OFF to
// strip it). A violation invokes the installed handler with the attempted
// acquisition and the thread's full held chain; the default handler prints
// the chain to stderr and aborts. Tests install a throwing handler to
// assert on the report without dying.
//
// RankedMutex satisfies BasicLockable + Lockable, so it composes with
// std::lock_guard / std::unique_lock; pair it with
// std::condition_variable_any (std::condition_variable requires a raw
// std::mutex).
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace dshuf {

/// Global acquisition order. Values are spaced so a future mutex can slot
/// between existing ranks without renumbering.
enum class LockRank : int {
  kCommMailbox = 10,   ///< comm::detail::RankMailbox::mu
  kCommRequest = 12,   ///< comm::detail::RequestState::mu
  kCommBarrier = 14,   ///< comm::detail::WorldState barrier
  kFault = 20,         ///< comm::FaultInjector queue/stats
  kPlanCache = 25,     ///< shuffle plan cache (every rank of the process
                       ///< shares one plan per epoch through it)
  kBatchLoader = 30,   ///< data::BatchLoader prefetch queue
  kFileStore = 40,     ///< io::FileSampleStore directory ops
  kObs = 45,           ///< obs metrics registry / tracer buffers — above
                       ///< every instrumented module so metric
                       ///< registration and span flushes are legal while
                       ///< holding any project lock below the logger
  kLog = 50,           ///< util log line serialisation
};

/// One entry of a thread's held-lock chain, oldest acquisition first.
struct HeldLock {
  LockRank rank;
  const char* name;
};

/// Everything the violation handler learns about a bad acquisition.
struct LockRankViolation {
  LockRank attempted_rank;
  const char* attempted_name;
  std::vector<HeldLock> held;  ///< full chain at the moment of the attempt

  /// Human-readable report naming the offending chain, e.g.
  /// "acquiring 'comm.mailbox' (rank 10) while holding
  ///  'comm.fault' (rank 20) <- 'util.log' (rank 50)".
  [[nodiscard]] std::string describe() const;
};

using LockRankViolationHandler = void (*)(const LockRankViolation&);

/// Install a handler (nullptr restores the default print-and-abort one).
/// Returns the previously installed handler. Not thread-safe against
/// concurrent violations — intended for test setup.
LockRankViolationHandler set_lock_rank_violation_handler(
    LockRankViolationHandler handler);

/// The calling thread's current held chain (oldest first). Test hook.
[[nodiscard]] std::vector<HeldLock> current_lock_chain();

namespace detail {
/// Check the rank discipline and record the acquisition. Called BEFORE
/// blocking on the underlying mutex so a would-deadlock acquisition is
/// reported instead of hanging. A throwing handler leaves the chain
/// untouched (the mutex is never locked); a returning handler opts into
/// continuing and the acquisition is recorded normally.
void note_acquire(LockRank rank, const char* name);
/// Forget one acquisition (erases the newest matching entry, so unlock
/// order need not mirror lock order).
void note_release(LockRank rank, const char* name);
}  // namespace detail

class RankedMutex {
 public:
  RankedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
#ifdef DSHUF_LOCK_RANK_CHECKS
    detail::note_acquire(rank_, name_);
#endif
    mu_.lock();
  }

  bool try_lock() {
#ifdef DSHUF_LOCK_RANK_CHECKS
    // try_lock cannot deadlock, but an out-of-order try_lock still breaks
    // the documented order for everything acquired after it — hold it to
    // the same discipline.
    detail::note_acquire(rank_, name_);
    if (mu_.try_lock()) return true;
    detail::note_release(rank_, name_);
    return false;
#else
    return mu_.try_lock();
#endif
  }

  void unlock() {
    mu_.unlock();
#ifdef DSHUF_LOCK_RANK_CHECKS
    detail::note_release(rank_, name_);
#endif
  }

  [[nodiscard]] LockRank rank() const { return rank_; }
  [[nodiscard]] const char* name() const { return name_; }

 private:
  std::mutex mu_;
  LockRank rank_;
  const char* name_;
};

}  // namespace dshuf
