// A Communicator that forwards every call to a rank's real endpoint. Tests
// derive from it and override only the calls they observe or alter (the
// sends, typically), so the protocol under test runs unchanged around them.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "comm/comm.hpp"

namespace dshuf {

class ForwardingCommunicator : public comm::Communicator {
 public:
  /// `slots` backs the collectives the base class runs; ranks of one
  /// world that are all wrapped must share it, initialised to the size.
  ForwardingCommunicator(comm::Communicator& inner,
                         comm::detail::CollectiveSlots& slots)
      : Communicator(inner.rank()), inner_(inner), slots_(slots) {}

  [[nodiscard]] int size() const override { return inner_.size(); }
  comm::Request isend(int dest, int tag,
                      std::vector<std::byte> payload) override {
    return inner_.isend(dest, tag, std::move(payload));
  }
  void send(int dest, int tag, std::vector<std::byte> payload) override {
    inner_.send(dest, tag, std::move(payload));
  }
  comm::Request irecv(int source, int tag) override {
    return inner_.irecv(source, tag);
  }
  comm::Message recv(int source, int tag) override {
    return inner_.recv(source, tag);
  }
  std::optional<comm::Message> poll(int source, int tag) override {
    return inner_.poll(source, tag);
  }
  bool cancel(comm::Request& request) override {
    return inner_.cancel(request);
  }
  [[nodiscard]] bool fault_injection_enabled() const override {
    return inner_.fault_injection_enabled();
  }
  void fence_faults() override { inner_.fence_faults(); }
  void barrier() override { inner_.barrier(); }
  [[nodiscard]] std::uint64_t now_us() override { return inner_.now_us(); }
  void backoff(std::chrono::microseconds pause) override {
    inner_.backoff(pause);
  }
  [[nodiscard]] comm::BufferPool& pool() override { return inner_.pool(); }

 protected:
  [[nodiscard]] comm::detail::CollectiveSlots& collective_slots() override {
    return slots_;
  }

 private:
  comm::Communicator& inner_;
  comm::detail::CollectiveSlots& slots_;
};

}  // namespace dshuf
