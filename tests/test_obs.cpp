// Observability layer tests: metrics registry semantics, span tracer +
// virtual clock, log context prefixes, JSON export round-trips, and the
// golden determinism contract — two chaos runs with the same fault seed
// emit byte-identical trace artifacts, and the exchange/fault stats the
// protocol reports agree exactly with what the registry counted.
#include <cstdint>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_harness.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace dshuf {
namespace {

std::uint64_t counter_of(const obs::MetricsSnapshot& s,
                         const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CounterGaugeBasics) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("test.obs.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);

  auto& g = reg.gauge("test.obs.gauge");
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);

  // Find-or-create returns the same instrument for the same name.
  EXPECT_EQ(&c, &reg.counter("test.obs.counter"));
  EXPECT_EQ(&g, &reg.gauge("test.obs.gauge"));
}

TEST(ObsRegistry, HistogramBucketsAndOverflow) {
  const std::vector<std::uint64_t> bounds{10, 100, 1000};
  auto& h = obs::Registry::instance().histogram("test.obs.hist", bounds);
  h.reset();
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (inclusive upper bound)
  h.observe(50);    // <= 100
  h.observe(5000);  // overflow bucket
  EXPECT_EQ(h.count(), 4U);
  EXPECT_EQ(h.sum(), 5U + 10U + 50U + 5000U);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), bounds.size() + 1);
  EXPECT_EQ(counts[0], 2U);
  EXPECT_EQ(counts[1], 1U);
  EXPECT_EQ(counts[2], 0U);
  EXPECT_EQ(counts[3], 1U);
}

TEST(ObsRegistry, ResetPreservesInstrumentIdentity) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("test.obs.reset");
  c.add(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0U);           // zeroed ...
  EXPECT_EQ(&c, &reg.counter("test.obs.reset"));  // ... same object
  c.add(3);
  EXPECT_EQ(counter_of(reg.snapshot(), "test.obs.reset"), 3U);
}

TEST(ObsRegistry, SnapshotIsSortedAndJsonParses) {
  auto& reg = obs::Registry::instance();
  reg.reset();
  reg.counter("test.zz").add(2);
  reg.counter("test.aa").add(1);
  reg.gauge("test.depth").set(-4);
  reg.histogram("test.lat", std::vector<std::uint64_t>{1, 2}).observe(3);

  const auto snap = reg.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }

  const json::Value doc = json::parse(snap.to_json());
  EXPECT_EQ(doc.at("counters").at("test.aa").as_int(), 1);
  EXPECT_EQ(doc.at("counters").at("test.zz").as_int(), 2);
  EXPECT_EQ(doc.at("gauges").at("test.depth").as_int(), -4);
  const auto& hist = doc.at("histograms").at("test.lat");
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_EQ(hist.at("sum").as_int(), 3);
  EXPECT_EQ(hist.at("counts").as_array().size(),
            hist.at("bounds").as_array().size() + 1);
}

// ------------------------------------------------------- spans + clocks

TEST(ObsTrace, VirtualClockDrivesSpanDurations) {
  obs::VirtualClock clock(100);
  obs::set_obs_clock(&clock);
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);

  {
    obs::SpanGuard span("test.span", {{"k", "v"}});
    clock.advance_us(250);
    EXPECT_EQ(span.finish(), 250U);
    EXPECT_EQ(span.finish(), 250U);  // idempotent
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].name, "test.span");
  EXPECT_EQ(events[0].ts_us, 100U);
  EXPECT_EQ(events[0].dur_us, 250U);
  ASSERT_EQ(events[0].attrs.size(), 1U);
  EXPECT_EQ(events[0].attrs[0].first, "k");

  tracer.set_enabled(false);
  tracer.clear();
  obs::set_obs_clock(nullptr);
}

TEST(ObsTrace, DisabledTracerStillMeasuresButRecordsNothing) {
  obs::VirtualClock clock;
  obs::set_obs_clock(&clock);
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();

  obs::SpanGuard span("test.unrecorded");
  clock.advance_us(77);
  EXPECT_EQ(span.finish(), 77U);
  EXPECT_TRUE(tracer.snapshot().empty());
  obs::set_obs_clock(nullptr);
}

TEST(ObsTrace, ChromeTraceJsonIsValidAndComplete) {
  obs::VirtualClock clock;
  obs::set_obs_clock(&clock);
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  {
    obs::SpanGuard a("test.a", {{"epoch", "0"}});
    clock.advance_us(10);
  }
  {
    obs::SpanGuard b("test.b");
    clock.advance_us(5);
  }

  const json::Value doc = json::parse(tracer.chrome_trace_json());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2U);
  for (const auto& e : events) {
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_GE(e.at("dur").as_int(), 0);
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("tid"));
  }

  // The epoch report aggregates the span that carries an epoch attribute.
  const std::string csv = tracer.epoch_report_csv();
  EXPECT_NE(csv.find("0,test.a,1,10"), std::string::npos) << csv;

  tracer.set_enabled(false);
  tracer.clear();
  obs::set_obs_clock(nullptr);
}

// A thread's spans wait in its own buffer until it exits; once it has
// been joined, a snapshot taken on another thread sees them under the
// track the thread set.
TEST(ObsTrace, SnapshotSeesSpansOfJoinedThreads) {
  obs::VirtualClock clock(50);
  obs::set_obs_clock(&clock);
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);

  std::thread worker([&clock] {
    obs::Tracer::set_thread_track(7);
    obs::SpanGuard span("test.worker", {{"epoch", "3"}});
    clock.advance_us(40);
  });
  worker.join();

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].name, "test.worker");
  EXPECT_EQ(events[0].track, 7);
  EXPECT_EQ(events[0].ts_us, 50U);
  EXPECT_EQ(events[0].dur_us, 40U);

  tracer.set_enabled(false);
  tracer.clear();
  obs::set_obs_clock(nullptr);
}

// Flow points skip the per-thread buffer: one recorded by a thread that is
// still running is in the next flow snapshot, before the thread exits.
TEST(ObsTrace, FlowPointsOfALiveThreadAreVisibleAtOnce) {
  obs::VirtualClock clock(90);
  obs::set_obs_clock(&clock);
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);

  std::promise<void> recorded;
  std::promise<void> release;
  std::thread worker([&] {
    obs::Tracer::set_thread_track(9);
    tracer.flow_point("test.flow", 42, obs::FlowPhase::kSend,
                      {{"epoch", "1"}});
    recorded.set_value();
    release.get_future().wait();
  });
  recorded.get_future().wait();
  const auto flows = tracer.flow_snapshot();
  release.set_value();
  worker.join();

  ASSERT_EQ(flows.size(), 1U);
  EXPECT_EQ(flows[0].name, "test.flow");
  EXPECT_EQ(flows[0].id, 42U);
  EXPECT_EQ(flows[0].ts_us, 90U);
  EXPECT_EQ(flows[0].track, 9);
  EXPECT_EQ(flows[0].phase, obs::FlowPhase::kSend);

  tracer.set_enabled(false);
  tracer.clear();
  obs::set_obs_clock(nullptr);
}

// ---------------------------------------------------------- log context

TEST(ObsLog, ContextPrefixesEveryLine) {
  const LogLevel saved = global_log_level();
  global_log_level() = LogLevel::kInfo;
  std::ostringstream captured;
  std::streambuf* old = std::clog.rdbuf(captured.rdbuf());

  LOG_INFO << "no context";
  {
    ScopedLogContext ctx(3, 7);
    LOG_INFO << "inside";
    {
      ScopedLogContext inner(1, 8);
      LOG_INFO << "nested";
    }
    LOG_INFO << "restored";
  }
  LOG_INFO << "cleared";

  std::clog.rdbuf(old);
  global_log_level() = saved;

  const std::string out = captured.str();
  EXPECT_NE(out.find("[INFO ] no context"), std::string::npos) << out;
  EXPECT_NE(out.find("[INFO ] [r3 e7] inside"), std::string::npos) << out;
  EXPECT_NE(out.find("[INFO ] [r1 e8] nested"), std::string::npos) << out;
  EXPECT_NE(out.find("[INFO ] [r3 e7] restored"), std::string::npos) << out;
  EXPECT_NE(out.find("[INFO ] cleared"), std::string::npos) << out;
}

// ------------------------------------------------- golden determinism

chaos::ChaosConfig golden_config(std::uint64_t fault_seed) {
  chaos::ChaosConfig cfg;
  cfg.n = 48;
  cfg.m = 3;
  cfg.q = 0.3;
  cfg.epochs = 2;
  cfg.seed = 11;
  cfg.fault_seed = fault_seed;
  cfg.spec.drop_prob = 0.08;
  cfg.spec.dup_prob = 0.05;
  cfg.unlimited_capacity = true;
  return cfg;
}

struct TracedChaos {
  std::string trace_json;
  std::string epoch_csv;
  std::string timeseries_json;
  chaos::ChaosResult result;
};

/// One chaos run with tracing + the timeseries sampler on a fresh virtual
/// clock; the returned artifacts must be a pure function of (shuffle
/// seed, fault seed).
TracedChaos run_traced_chaos(const chaos::ChaosConfig& cfg) {
  auto& tracer = obs::Tracer::instance();
  auto& sampler = obs::TimeseriesSampler::instance();
  obs::Registry::instance().reset();
  tracer.clear();
  obs::VirtualClock clock;
  obs::set_obs_clock(&clock);
  tracer.set_enabled(true);
  sampler.set_enabled(true);
  sampler.reset();

  TracedChaos out;
  out.result = chaos::run_chaos_exchange(cfg);
  sampler.sample_window("final");
  out.trace_json = tracer.chrome_trace_json();
  out.epoch_csv = tracer.epoch_report_csv();
  out.timeseries_json = sampler.to_json();

  sampler.set_enabled(false);
  sampler.reset();
  tracer.set_enabled(false);
  tracer.clear();
  obs::set_obs_clock(nullptr);
  return out;
}

TEST(ObsGolden, ChaosTraceIsByteIdenticalAcrossRuns) {
  const auto a = run_traced_chaos(golden_config(21));
  const auto b = run_traced_chaos(golden_config(21));
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.epoch_csv, b.epoch_csv);
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
  // Sanity: the artifacts are non-trivial and well-formed JSON.
  const json::Value doc = json::parse(a.trace_json);
  EXPECT_GE(doc.at("traceEvents").as_array().size(),
            golden_config(21).epochs * 3U);  // one epoch span per rank
  EXPECT_NE(a.epoch_csv.find("exchange.epoch"), std::string::npos);
  // The trace carries the cross-rank causality layer: named rank lanes
  // and send/finish flow points alongside the spans.
  EXPECT_NE(a.trace_json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"dshuf.flow\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"ph\":\"f\""), std::string::npos);
  // And the timeseries export is a valid v1 document with the exchange
  // counters in its window.
  const json::Value ts = json::parse(a.timeseries_json);
  EXPECT_EQ(ts.at("schema").as_string(), "dshuf.timeseries.v1");
  ASSERT_GE(ts.at("windows").as_array().size(), 1U);
  EXPECT_TRUE(ts.at("windows").as_array()[0].at("counters").has(
      "exchange.epochs"));
}

TEST(ObsGolden, ExchangeOutcomesMatchRegistryCounters) {
  obs::Registry::instance().reset();
  const auto result = chaos::run_chaos_exchange(golden_config(5));

  shuffle::ExchangeOutcome sum;
  std::size_t epoch_count = 0;
  for (const auto& per_rank : result.outcomes) {
    for (const auto& o : per_rank) {
      ++epoch_count;
      sum.rounds += o.rounds;
      sum.sends_committed += o.sends_committed;
      sum.send_fallbacks += o.send_fallbacks;
      sum.recvs_committed += o.recvs_committed;
      sum.recv_fallbacks += o.recv_fallbacks;
      sum.retries += o.retries;
      sum.duplicates_suppressed += o.duplicates_suppressed;
      sum.strays_drained += o.strays_drained;
      sum.msgs_sent += o.msgs_sent;
      sum.bytes_header += o.bytes_header;
      sum.bytes_body += o.bytes_body;
      sum.bytes_sent += o.bytes_sent;
      sum.bytes_offered += o.bytes_offered;
    }
  }

  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(counter_of(snap, "exchange.epochs"), epoch_count);
  EXPECT_EQ(counter_of(snap, "exchange.rounds"), sum.rounds);
  EXPECT_EQ(counter_of(snap, "exchange.sends_committed"),
            sum.sends_committed);
  EXPECT_EQ(counter_of(snap, "exchange.send_fallbacks"),
            sum.send_fallbacks);
  EXPECT_EQ(counter_of(snap, "exchange.recvs_committed"),
            sum.recvs_committed);
  EXPECT_EQ(counter_of(snap, "exchange.recv_fallbacks"),
            sum.recv_fallbacks);
  EXPECT_EQ(counter_of(snap, "exchange.retries"), sum.retries);
  EXPECT_EQ(counter_of(snap, "exchange.duplicates_suppressed"),
            sum.duplicates_suppressed);
  EXPECT_EQ(counter_of(snap, "exchange.strays_drained"),
            sum.strays_drained);
  EXPECT_EQ(counter_of(snap, "exchange.msgs"), sum.msgs_sent);
  EXPECT_EQ(counter_of(snap, "exchange.bytes.header"), sum.bytes_header);
  EXPECT_EQ(counter_of(snap, "exchange.bytes.body"), sum.bytes_body);
  EXPECT_EQ(counter_of(snap, "exchange.bytes_sent"), sum.bytes_sent);
  // Framing + payload accounts for every first-attempt byte, exactly.
  EXPECT_EQ(sum.bytes_header + sum.bytes_body, sum.bytes_offered);
}

TEST(ObsGolden, FaultStatsMatchRegistryCounters) {
  obs::Registry::instance().reset();
  auto cfg = golden_config(9);
  cfg.spec.delay_prob = 0.1;
  cfg.spec.min_delay_us = 200;
  cfg.spec.max_delay_us = 2000;
  const auto result = chaos::run_chaos_exchange(cfg);
  const comm::FaultStats& f = result.faults;

  const auto snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(counter_of(snap, "comm.fault.submitted"), f.submitted);
  EXPECT_EQ(counter_of(snap, "comm.fault.delivered"), f.delivered);
  EXPECT_EQ(counter_of(snap, "comm.fault.dropped"), f.dropped);
  EXPECT_EQ(counter_of(snap, "comm.fault.duplicated"), f.duplicated);
  EXPECT_EQ(counter_of(snap, "comm.fault.delayed"), f.delayed);
  EXPECT_EQ(counter_of(snap, "comm.fault.stalled"), f.stalled);
  EXPECT_EQ(counter_of(snap, "comm.fault.flushed"), f.flushed);
  EXPECT_GT(f.submitted, 0U);
}

// ------------------------------------------------------------ json util

TEST(ObsJson, ParsesNestedDocuments) {
  const json::Value v = json::parse(
      R"({"a": [1, 2.5, true, null, "sé"], "b": {"c": -3}})");
  EXPECT_EQ(v.at("a").as_array().size(), 5U);
  EXPECT_EQ(v.at("a").as_array()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_TRUE(v.at("a").as_array()[2].as_bool());
  EXPECT_TRUE(v.at("a").as_array()[3].is_null());
  EXPECT_EQ(v.at("a").as_array()[4].as_string(), "s\xc3\xa9");
  EXPECT_EQ(v.at("b").at("c").as_int(), -3);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW((void)json::parse("{\"a\": }"), CheckError);
  EXPECT_THROW((void)json::parse("[1, 2"), CheckError);
  EXPECT_THROW((void)json::parse("{} trailing"), CheckError);
  EXPECT_THROW((void)json::parse(""), CheckError);
}

}  // namespace
}  // namespace dshuf
