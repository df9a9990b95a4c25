#include "util/ranked_mutex.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace dshuf {

namespace {

// Oldest acquisition first. Ranks along the chain are strictly ascending
// by construction, so the top is always the maximum held rank.
//
// Deliberately a POD array, NOT a std::vector: a vector's TLS destructor
// runs at __call_tls_dtors, BEFORE static destructors, so any static
// destructor that takes a ranked lock would touch a freed stack. POD
// thread_locals have no destructor, so the stack stays valid for the
// whole teardown.
// Depth is bounded by the rank count (strictly-ascending discipline);
// kMaxHeld leaves headroom for a log-only violation handler that opts
// into continuing past duplicates.
constexpr std::size_t kMaxHeld = 16;
thread_local HeldLock t_held[kMaxHeld];
thread_local std::size_t t_depth = 0;

void default_handler(const LockRankViolation& v) {
  const std::string report = v.describe();
  std::fprintf(stderr, "dshuf: %s\n", report.c_str());
  std::abort();
}

std::atomic<LockRankViolationHandler> g_handler{&default_handler};

}  // namespace

std::string LockRankViolation::describe() const {
  std::ostringstream oss;
  oss << "lock-rank violation: acquiring '" << attempted_name << "' (rank "
      << static_cast<int>(attempted_rank) << ") while holding";
  for (std::size_t i = held.size(); i-- > 0;) {
    oss << (i + 1 == held.size() ? " " : " <- ") << "'" << held[i].name
        << "' (rank " << static_cast<int>(held[i].rank) << ")";
  }
  oss << "; the documented order (DESIGN.md §8) requires strictly "
         "ascending ranks";
  return oss.str();
}

LockRankViolationHandler set_lock_rank_violation_handler(
    LockRankViolationHandler handler) {
  return g_handler.exchange(handler != nullptr ? handler : &default_handler,
                            std::memory_order_seq_cst);
}

std::vector<HeldLock> current_lock_chain() {
  return {t_held, t_held + t_depth};
}

namespace detail {

void note_acquire(LockRank rank, const char* name) {
  if (t_depth > 0 && rank <= t_held[t_depth - 1].rank) {
    LockRankViolation v;
    v.attempted_rank = rank;
    v.attempted_name = name;
    v.held.assign(t_held, t_held + t_depth);
    g_handler.load(std::memory_order_acquire)(v);
    // A handler that returns opted into continuing (e.g. log-only mode);
    // fall through and record the acquisition so unlock stays balanced.
  }
  if (t_depth < kMaxHeld) {
    t_held[t_depth++] = HeldLock{rank, name};
  }
  // Past kMaxHeld (only reachable under a continuing handler) the entry
  // is dropped; note_release's search-by-identity shrugs that off.
}

void note_release(LockRank rank, const char* name) {
  for (std::size_t i = t_depth; i-- > 0;) {
    if (t_held[i].rank == rank && t_held[i].name == name) {
      for (std::size_t j = i + 1; j < t_depth; ++j) {
        t_held[j - 1] = t_held[j];
      }
      --t_depth;
      return;
    }
  }
}

}  // namespace detail
}  // namespace dshuf
