// Readings of the tensor.gemm.calls / tensor.gemm.flops counters, for
// tests that pin down exactly which GEMMs a piece of code runs: take one
// reading before and one after, and subtract.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace dshuf {

struct GemmCount {
  std::uint64_t calls = 0;
  std::uint64_t flops = 0;
};

inline GemmCount gemm_count() {
  auto& reg = obs::Registry::instance();
  return {reg.counter("tensor.gemm.calls").value(),
          reg.counter("tensor.gemm.flops").value()};
}

inline GemmCount operator-(const GemmCount& after, const GemmCount& before) {
  return {after.calls - before.calls, after.flops - before.flops};
}

}  // namespace dshuf
