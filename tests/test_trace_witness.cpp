// Meter == analytic, end to end: one run's rounds and wire bytes as
// counted by the channel meter (TrafficStats) and as predicted by
// perf::profile_program must be EXACTLY equal — per chunk, in process and
// over a real localhost TCP session on BOTH endpoints.  Every metered
// window adds its meter totals to its tracer once, so the trace counters
// carry the same numbers; the tests here pin that wiring (each window,
// the ot-ext offline window included) and that the two endpoints' traces
// agree counter for counter.  This is the test the --trace + --verify
// path of the party binaries leans on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <vector>

#include "net/party_session.hpp"
#include "obs/tracer.hpp"
#include "offline/ot_triple_source.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace net = pasnet::net;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

namespace {

perf::LatencyModel model() {
  return perf::LatencyModel(perf::HardwareConfig::zcu104(), perf::NetworkConfig::lan_1gbps());
}

net::TransportOptions test_opts() {
  net::TransportOptions o;
  o.connect_timeout = std::chrono::milliseconds(5000);
  o.io_timeout = std::chrono::milliseconds(20000);
  return o;
}

struct WitnessFixture {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;
  std::unique_ptr<pc::TwoPartyContext> compile_ctx;
  std::unique_ptr<proto::SecureNetwork> snet;
  std::vector<nn::Tensor> queries;

  explicit WitnessFixture(int num_queries)
      : md(pasnet::testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool)) {
    pc::Prng wprng(131);
    graph = nn::build_graph(md, wprng, &node_of_layer);
    pasnet::testing::warm_up(*graph, 2, 8, 132);
    compile_ctx = std::make_unique<pc::TwoPartyContext>();
    snet = std::make_unique<proto::SecureNetwork>(md, *graph, node_of_layer, *compile_ctx);
    pc::Prng qprng(133);
    for (int q = 0; q < num_queries; ++q) {
      queries.push_back(nn::Tensor::randn({1, 2, 8, 8}, qprng, 0.5f));
    }
  }

  [[nodiscard]] perf::ProgramCost analytic(int batch) const {
    return perf::profile_program(model(), snet->program(), compile_ctx->ring().bits,
                                 compile_ctx->ring().wire_bits, batch);
  }
};

/// Wait-time counters are the only timing-dependent entries.
obs::CounterSnapshot normalized(obs::CounterSnapshot s) {
  s.values[static_cast<int>(obs::Counter::recv_wait_us)] = 0;
  s.values[static_cast<int>(obs::Counter::send_wait_us)] = 0;
  return s;
}

}  // namespace

TEST(TraceWitness, InProcessChunksMatchMeterAndAnalyticExactly) {
  // 3 queries at K=2: a full chunk and a 1-lane remainder chunk, each with
  // its own trace and its own analytic prediction.
  WitnessFixture f(3);
  proto::WorkloadOptions wopts;
  wopts.batch = 2;
  proto::Workload wl(*f.snet, wopts);
  obs::Tracer tracer;
  wl.set_tracer(&tracer);
  (void)wl.run(f.queries);

  ASSERT_EQ(wl.chunk_stats().size(), 2u);
  obs::CounterSnapshot summed;
  for (const proto::ChunkStats& cs : wl.chunk_stats()) {
    const perf::ProgramCost cost = f.analytic(static_cast<int>(cs.queries));
    // The chunk's trace carries its meter totals, added exactly once...
    EXPECT_EQ(cs.trace[obs::Counter::rounds], cs.totals.rounds) << cs.first_query;
    EXPECT_EQ(cs.trace.total_bytes(), cs.totals.comm_bytes) << cs.first_query;
    EXPECT_EQ(cs.trace[obs::Counter::messages], cs.totals.messages) << cs.first_query;
    // ...and meter == analytic.
    EXPECT_EQ(cs.totals.rounds, static_cast<std::uint64_t>(cost.total.rounds))
        << cs.first_query;
    EXPECT_EQ(cs.totals.comm_bytes, cost.wire_bytes) << cs.first_query;
    summed += cs.trace;
  }
  // The workload tracer holds exactly the merged chunk counters.
  const obs::CounterSnapshot total = tracer.snapshot();
  for (int i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(total.values[i], summed.values[i])
        << obs::counter_name(static_cast<obs::Counter>(i));
  }
}

TEST(TraceWitness, PartyChannelSharesOneMintedTraceIdAcrossEndpoints) {
  // The wiring the party binaries lean on: the dial side mints the run's
  // correlation id during the transport handshake, the serve side adopts
  // it, and both surface it (plus the estimated clock offset) for the
  // session tracer and any onward dealer connection.
  net::Listener listener(0);
  const std::uint16_t port = listener.port();
  auto served = std::async(std::launch::async,
                           [&] { return net::serve_party_channel(listener, 1, test_opts()); });
  auto c0 = net::dial_party_channel("127.0.0.1", port, 0, test_opts());
  auto c1 = served.get();

  const obs::TraceId id = c0->session_trace_id();
  EXPECT_FALSE(id.is_zero());
  EXPECT_EQ(c1->session_trace_id(), id);
  // Party 0 dialed with no upstream offset, so it is the run's reference
  // clock; party 1's estimate is loopback noise, not seconds.
  EXPECT_EQ(c0->session_clock_offset_us(), 0);
  EXPECT_LT(std::llabs(c1->session_clock_offset_us()), 100000);

  // A tracer seeded the way the binaries do it stamps the id into every
  // span it closes from then on.
  obs::Tracer tracer;
  tracer.set_trace_id(id);
  tracer.complete_span("test", "correlated", obs::Tracer::now_us());
  for (const obs::TraceEvent& ev : tracer.events()) EXPECT_EQ(ev.trace_id, id);
}

TEST(TraceWitness, RemoteLoopbackBatchMeterMatchesAnalyticOnBothEndpoints) {
  WitnessFixture f(2);

  // In-process reference chunk of the same 2 queries, with its trace.
  proto::WorkloadOptions wopts;
  wopts.batch = 2;
  proto::Workload wl(*f.snet, wopts);
  obs::Tracer ref_tracer;
  wl.set_tracer(&ref_tracer);
  const auto ref_out = wl.run(f.queries);
  ASSERT_EQ(wl.chunk_stats().size(), 1u);
  const obs::CounterSnapshot ref_trace = wl.chunk_stats()[0].trace;

  // Both parties over localhost TCP, one 2-lane chunk each, traced.
  net::Listener listener(0);
  const std::uint16_t port = listener.port();
  struct Side {
    ir::BatchExecResult res;
    pc::TrafficStats stats;
    obs::CounterSnapshot trace;
  };
  const auto run_side = [&](int party) {
    Side side;
    std::unique_ptr<net::TransportChannel> chan =
        party == 1 ? net::serve_party_channel(listener, 1, test_opts())
                   : net::dial_party_channel("127.0.0.1", port, 0, test_opts());
    net::PartySession session(party, *chan, pc::RingConfig{});
    obs::Tracer tracer;
    session.set_tracer(&tracer);
    net::RemoteSessionOptions ropts;
    ropts.allow_ideal_ot = true;  // loopback test: both parties in-process
    side.res = session.run_batch(f.snet->program(), f.snet->params(), 0,
                                 party == 0 ? &f.queries : nullptr, f.queries.size(),
                                 ropts, &side.stats, &side.trace);
    return side;
  };
  auto side1 = std::async(std::launch::async, run_side, 1);
  const Side p0 = run_side(0);
  const Side p1 = side1.get();

  const perf::ProgramCost cost = f.analytic(static_cast<int>(f.queries.size()));
  for (const Side* side : {&p0, &p1}) {
    EXPECT_EQ(side->stats.rounds, static_cast<std::uint64_t>(cost.total.rounds));
    EXPECT_EQ(side->stats.total_bytes(), cost.wire_bytes);
    // Counter-total determinism across deployment modes: the remote
    // endpoint's trace equals the in-process chunk's, wait times aside.
    const obs::CounterSnapshot remote = normalized(side->trace);
    const obs::CounterSnapshot local = normalized(ref_trace);
    for (int i = 0; i < obs::kCounterCount; ++i) {
      EXPECT_EQ(remote.values[i], local.values[i])
          << obs::counter_name(static_cast<obs::Counter>(i));
    }
  }
  // Same bits as the in-process run, for good measure.
  for (std::size_t q = 0; q < f.queries.size(); ++q) {
    ASSERT_EQ(p0.res.logits[q].size(), ref_out.logits[q].size());
    for (std::size_t i = 0; i < ref_out.logits[q].size(); ++i) {
      ASSERT_EQ(p0.res.logits[q][i], ref_out.logits[q][i]) << "query " << q;
      ASSERT_EQ(p1.res.logits[q][i], ref_out.logits[q][i]) << "query " << q;
    }
  }
}

TEST(TraceWitness, RemoteOtExtOfflineTraceCarriesTheOfflineMeter) {
  // The ot-ext offline window is the third metered window: on both
  // endpoints its trace (offline_trace_out) must carry exactly the
  // window's TrafficStats (offline_stats_out), which must equal the
  // analytic generation cost, next to the OT-extension work counters.
  WitnessFixture f(2);
  const auto plan = proto::Workload(*f.snet).plan();
  net::Listener listener(0);
  const std::uint16_t port = listener.port();
  struct Side {
    pc::TrafficStats offline_stats;
    obs::CounterSnapshot offline_trace;
  };
  const auto run_side = [&](int party) {
    Side side;
    std::unique_ptr<net::TransportChannel> chan =
        party == 1 ? net::serve_party_channel(listener, 1, test_opts())
                   : net::dial_party_channel("127.0.0.1", port, 0, test_opts());
    net::PartySession session(party, *chan, pc::RingConfig{});
    obs::Tracer tracer;
    session.set_tracer(&tracer);
    net::RemoteSessionOptions ropts;
    ropts.allow_ideal_ot = true;  // loopback test: both parties in-process
    ropts.source = net::TripleSourceKind::ot_ext;
    ropts.plan = &plan;
    ropts.offline_stats_out = &side.offline_stats;
    ropts.offline_trace_out = &side.offline_trace;
    (void)session.run_batch(f.snet->program(), f.snet->params(), 0,
                            party == 0 ? &f.queries : nullptr, f.queries.size(), ropts);
    return side;
  };
  auto side1 = std::async(std::launch::async, run_side, 1);
  const Side p0 = run_side(0);
  const Side p1 = side1.get();

  const pasnet::offline::OtExtCost cost =
      pasnet::offline::ot_ext_generation_cost(plan, f.queries.size());
  for (const Side* side : {&p0, &p1}) {
    const pc::TrafficStats& st = side->offline_stats;
    const obs::CounterSnapshot& tr = side->offline_trace;
    EXPECT_EQ(st.rounds, cost.rounds);
    EXPECT_EQ(st.total_bytes(), cost.total_bytes());
    EXPECT_EQ(st.messages, cost.messages);
    EXPECT_EQ(tr[obs::Counter::rounds], st.rounds);
    EXPECT_EQ(tr[obs::Counter::bytes_p0_to_p1], st.bytes_p0_to_p1);
    EXPECT_EQ(tr[obs::Counter::bytes_p1_to_p0], st.bytes_p1_to_p0);
    EXPECT_EQ(tr[obs::Counter::messages], st.messages);
    EXPECT_EQ(tr[obs::Counter::ot_ext_base], cost.base_ots);
    EXPECT_EQ(tr[obs::Counter::ot_ext_cots], cost.ext_cots);
  }
}
