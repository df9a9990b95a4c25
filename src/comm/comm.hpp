// In-process MPI-like communicator.
//
// The paper's exchange (Algorithm 1) is written against MPI point-to-point
// semantics: MPI_Isend / MPI_Irecv with tags, MPI_ANY_SOURCE, and
// wait-for-all completion. This module provides exactly those semantics
// with ranks as threads in one process:
//
//   comm::World world(M);
//   world.run([](comm::Communicator& c) {
//     auto s = c.isend(dest, tag, bytes);
//     auto r = c.irecv(comm::kAnySource, tag);
//     r.wait();                // message now in r.message()
//   });
//
// Sends are buffered ("eager"): isend deposits the message into the
// destination inbox and completes locally, matching the completion
// semantics training code can rely on from a buffered MPI_Isend. Receives
// match by (source, tag) with wildcards, in arrival order (non-overtaking
// per source, like MPI).
//
// A World can additionally run with deterministic fault injection (see
// comm/fault.hpp): install a seeded FaultPlan with set_fault_plan() and
// every point-to-point delivery may be delayed, reordered, duplicated,
// dropped, or stalled — reproducibly. Timeout-aware receives
// (Request::wait_for, Communicator::recv_for/poll/cancel) and the fence
// primitive exist so protocols can survive that regime.
//
// Communicator itself is an abstract endpoint: the threaded World above is
// one backend (one OS thread per rank), and netsim::VirtualWorld is the
// other (thousands of fiber ranks over a discrete-event network model, for
// paper-scale M). Exchange code written against this interface runs on
// either unchanged; the collectives are implemented ONCE in the base class
// over barrier() + shared slots, so both backends produce bit-identical
// collective results by construction.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "comm/buffer_pool.hpp"

namespace dshuf::comm {

class FaultPlan;
struct FaultStats;

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Ranks-as-threads stops making sense well before it stops working: the
/// scheduler thrashes and every test slot in CI stalls. Worlds larger than
/// this refuse to construct and point at the event-driven backend instead.
inline constexpr int kMaxThreadedRanks = 512;

/// A received or in-flight message.
struct Message {
  int source = -1;
  int tag = 0;
  std::vector<std::byte> payload;
};

namespace detail {

/// Backend-specific completion state behind a Request. The threaded world
/// implements it with a mutex + condvar; the virtual world with fiber
/// suspension. Callers only ever touch it through Request.
struct RequestState {
  virtual ~RequestState() = default;
  [[nodiscard]] virtual bool test() = 0;
  virtual void wait() = 0;
  virtual bool wait_for(std::chrono::microseconds timeout) = 0;
  [[nodiscard]] virtual bool cancelled() = 0;
  [[nodiscard]] virtual const Message& message() = 0;
};

/// Shared storage for the slot-and-barrier collectives. Both backends own
/// one; the base Communicator implements every collective against it.
struct CollectiveSlots {
  /// What a rank publishes for allreduce_sum: its own buffers, which every
  /// rank then reads and writes in place.
  struct ReduceBuffers {
    const double* contribution = nullptr;
    double* out = nullptr;
    std::size_t size = 0;
  };
  std::vector<ReduceBuffers> reduce;
  std::vector<std::vector<std::byte>> bcast;
  std::vector<std::vector<std::vector<std::byte>>> a2a;

  void init(int ranks) {
    reduce.resize(static_cast<std::size_t>(ranks));
    bcast.resize(static_cast<std::size_t>(ranks));
    a2a.resize(static_cast<std::size_t>(ranks));
    for (auto& row : a2a) row.resize(static_cast<std::size_t>(ranks));
  }
};

class WorldState;

}  // namespace detail

/// Handle to a pending non-blocking operation. Copyable (shared state).
class Request {
 public:
  Request() = default;

  /// True once the operation has completed (non-blocking probe).
  [[nodiscard]] bool test() const;
  /// Block until complete.
  void wait();
  /// Block until complete or `timeout` elapses; true iff completed. A
  /// false return leaves the request live — pair with Communicator::cancel
  /// to retire it (or keep waiting). Timeouts are measured on the
  /// backend's clock: wall time under the threaded world, virtual time
  /// under the event-driven one.
  bool wait_for(std::chrono::microseconds timeout);
  /// The received message; only valid for completed receive requests.
  [[nodiscard]] const Message& message() const;

  /// True once Communicator::cancel retired this request.
  [[nodiscard]] bool cancelled() const;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class Communicator;
  explicit Request(std::shared_ptr<detail::RequestState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// Wait for every request in the span (MPI_Waitall).
void wait_all(std::span<Request> requests);

/// Per-rank endpoint (abstract). Not thread-safe across ranks by design:
/// each rank's thread/fiber owns its Communicator.
class Communicator {
 public:
  virtual ~Communicator() = default;
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] virtual int size() const = 0;

  /// Buffered non-blocking send. Completes immediately after enqueuing at
  /// the destination; the returned request is for interface parity.
  virtual Request isend(int dest, int tag, std::vector<std::byte> payload) = 0;

  /// Buffered send without a completion handle. Identical delivery
  /// semantics to isend (which is buffered and completes locally anyway),
  /// minus the per-call Request allocation — the exchange hot path uses
  /// this together with pool() so a steady-state send touches no heap.
  virtual void send(int dest, int tag, std::vector<std::byte> payload) = 0;

  /// Non-blocking receive matching (source, tag); kAnySource / kAnyTag
  /// wildcards allowed. Matches already-arrived messages first, otherwise
  /// parks until a matching message arrives.
  virtual Request irecv(int source, int tag) = 0;

  /// Blocking receive convenience.
  virtual Message recv(int source, int tag) = 0;

  /// Receive with a deadline: returns the message, or nullopt if nothing
  /// matching arrived within `timeout` (the posted receive is retired, so
  /// a later arrival stays in the mailbox for the next receive).
  std::optional<Message> recv_for(int source, int tag,
                                  std::chrono::microseconds timeout);

  /// Non-blocking probe-and-take: pops an already-arrived matching message
  /// without posting a receive. Used to drain stray/duplicate messages.
  virtual std::optional<Message> poll(int source, int tag) = 0;

  /// Retire a pending (unmatched) receive request — MPI_Cancel analogue.
  /// Returns true if the request was still unmatched and is now cancelled;
  /// false if it already completed (the message is available) or it was a
  /// send request.
  virtual bool cancel(Request& request) = 0;

  /// True when the World runs with an installed fault plan. Fault-oblivious
  /// protocols check this to refuse running over a lossy world.
  [[nodiscard]] virtual bool fault_injection_enabled() const = 0;

  /// Flush any delayed/in-flight deliveries and wait until no delivery is
  /// in flight. Call between a barrier (all sends issued) and a drain loop
  /// to make delivery globally quiescent. No-op on the threaded world
  /// without an installed fault plan (deliveries are synchronous there).
  virtual void fence_faults() = 0;

  /// Dissemination barrier across all ranks.
  virtual void barrier() = 0;

  /// The clock that retry/timeout protocols over this communicator must
  /// use: monotonic microseconds of wall time on the threaded world,
  /// VIRTUAL microseconds on the event-driven one. Pairs with backoff().
  [[nodiscard]] virtual std::uint64_t now_us() = 0;

  /// Yield this rank for `pause`, measured on the same clock now_us()
  /// reads. The threaded world sleeps the rank's thread; the virtual world
  /// suspends the fiber and lets simulated time advance. Progress loops
  /// must back off through this (never std::this_thread::sleep_for), or
  /// virtual time would stand still beneath them.
  virtual void backoff(std::chrono::microseconds pause) = 0;

  /// Element-wise sum allreduce over doubles (gradient-exchange analogue):
  /// every rank's `out` receives, per element, +0.0 plus each rank's
  /// addend in rank order. A reduce-scatter and allgather over the
  /// published buffers: rank r sums the r-th of M chunks and writes it into
  /// every rank's `out`, so each rank reads and writes n elements and
  /// nothing is copied or allocated. `out` may be `contribution` itself
  /// (an in-place reduction) but must not otherwise overlap it. Lengths
  /// must agree across ranks; a mismatch throws on every rank before any
  /// rank writes.
  void allreduce_sum(std::span<const double> contribution,
                     std::span<double> out);

  /// The same into a freshly allocated result.
  std::vector<double> allreduce_sum(std::span<const double> contribution);

  /// Broadcast from root: root's payload is returned on every rank.
  std::vector<std::byte> bcast(int root, std::vector<std::byte> payload);

  /// Personalised all-to-all: send_per_dest[d] goes to rank d; returns the
  /// vector received from each source rank (index = source).
  std::vector<std::vector<std::byte>> alltoallv(
      std::vector<std::vector<std::byte>> send_per_dest);

  /// Gather every rank's payload at `root` (indexed by source). Non-root
  /// ranks receive an empty vector.
  std::vector<std::vector<std::byte>> gather(int root,
                                             std::vector<std::byte> payload);

  /// All ranks receive every rank's payload (indexed by source).
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> payload);

  /// Element-wise double sum delivered only at `root`; other ranks get an
  /// empty vector.
  std::vector<double> reduce_sum(int root, std::span<const double> contribution);

  /// Root distributes per_dest[d] to rank d; returns this rank's share.
  std::vector<std::byte> scatter(int root,
                                 std::vector<std::vector<std::byte>> per_dest);

  /// This rank's payload-buffer pool (see comm/buffer_pool.hpp). Only the
  /// owning rank's thread may touch it; buffers released here came either
  /// from this pool or from a received message (buffers migrate with the
  /// traffic). Pools persist across World::run calls, so a warmed-up
  /// exchange stays allocation-free in later epochs.
  [[nodiscard]] virtual BufferPool& pool() = 0;

 protected:
  explicit Communicator(int rank) : rank_(rank) {}

  /// Derived backends mint Requests through this (the ctor is private to
  /// keep the shared-state plumbing out of user hands).
  static Request make_request(std::shared_ptr<detail::RequestState> s) {
    return Request(std::move(s));
  }

  /// Backend-side view of a Request's shared state (friendship does not
  /// extend to derived backends, so they unwrap through here).
  [[nodiscard]] static const std::shared_ptr<detail::RequestState>&
  request_state(const Request& r) {
    return r.state_;
  }

  /// Storage the base-class collectives stage through. Every collective is
  /// slots + two barriers with deterministic rank-order accumulation, so
  /// any two backends agree bit-for-bit.
  [[nodiscard]] virtual detail::CollectiveSlots& collective_slots() = 0;

  int rank_;
};

/// Owns the shared state and the rank threads.
class World {
 public:
  explicit World(int num_ranks);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const;

  /// Run `body` on `size()` threads, one per rank. Rethrows the first
  /// exception any rank threw (after joining all threads). May be called
  /// multiple times; mailboxes must be drained between runs (checked).
  void run(const std::function<void(Communicator&)>& body);

  /// Install a deterministic fault plan (see comm/fault.hpp): every
  /// point-to-point delivery is routed through the injector from now on.
  /// Must not be called while run() is executing. Replaces any previous
  /// plan; attempt counters restart at each run() so identical runs see
  /// identical fault schedules.
  void set_fault_plan(const FaultPlan& plan);
  /// Remove the installed fault plan (deliveries become perfect again).
  void clear_fault_plan();
  /// Injector counters (all zero when no plan is installed). Include
  /// comm/fault.hpp for the FaultStats definition.
  [[nodiscard]] FaultStats fault_stats() const;

 private:
  std::unique_ptr<detail::WorldState> state_;
};

}  // namespace dshuf::comm
