// DSHUF_NOALLOC: a statically-checked promise that a function's steady
// state performs no heap allocation.
//
// The marker expands to nothing at compile time — it is a contract token
// for `tools/dshuf_analyze`, whose no-alloc pass walks the call graph from
// every marked function and reports any reachable `new`, malloc-family
// call, std::to_string / make_unique / make_shared, or growth operation on
// a standard container (push_back, resize, insert, ...).
//
// Exemptions, enforced by the analyzer (DESIGN.md §12):
//   * catch blocks and DSHUF_CHECK failure paths — error handling may
//     allocate;
//   * sites annotated `// analyze:alloc-ok <why>` — for amortised growth
//     into capacity-retaining pooled buffers, which is how the exchange
//     reaches its allocation-free steady state (allocations happen during
//     warm-up, capacity is reused after).
//
// Usage, on the definition:
//
//   DSHUF_NOALLOC bool find(data::SampleId id, std::uint64_t& out) const;
#pragma once

#define DSHUF_NOALLOC
