// Differential bit-identity harness for the staged (resumable) comparison
// stack: the scheduled program — which advances every ReLU/maxpool
// instance of a round group in lockstep through shared OT, AND-tree and
// open rounds — must reproduce its one-group-per-op twin's secret shares
// request-for-request, op for op, on every support/test_models.hpp model,
// in lockstep and threaded modes, with both OT instantiations,
// dealer-backed and TripleStore-backed; both programs must measure
// exactly the rounds and bytes perf::profile_program prices.  Plus seeded
// randomized property tests for millionaire_gt / drelu over adversarial
// fixed-point edge values.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/passes.hpp"
#include "ir/plan.hpp"
#include "offline/triple_store.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

using pasnet::testing::all_test_models;
using pasnet::testing::per_op_groups;
using pasnet::testing::proxy_resnet;
using pasnet::testing::tiny_cnn;
using pasnet::testing::warm_up;

namespace {

struct Trained {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;
};

Trained train(nn::ModelDescriptor md, std::uint64_t seed) {
  Trained t;
  t.md = std::move(md);
  pc::Prng wprng(seed);
  t.graph = nn::build_graph(t.md, wprng, &t.node_of_layer);
  warm_up(*t.graph, t.md.input_ch, t.md.input_h, seed + 1);
  return t;
}

/// Captured per-op output shares of one execution.
struct Capture {
  std::vector<std::size_t> idx;
  std::vector<pc::Shared> shares;
};

struct RunResult {
  nn::Tensor logits;
  Capture ops;
  std::uint64_t rounds = 0;
  std::uint64_t bytes = 0;
};

/// One query (one lane) through ir::execute_batch, capturing every op's
/// output shares.
/// Context / parameter seeds are fixed so two groupings of one program
/// differ only in their open scheduling.
RunResult run_program(const ir::SecureProgram& p, pc::ExecMode mode, const nn::Tensor& x,
                      pc::OtMode ot = pc::OtMode::correlated) {
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, mode);
  pc::Prng wprng(7);
  const ir::CompiledParams params = ir::share_parameters(p, wprng, ctx.ring());
  ir::BatchExecOptions opts;
  opts.cfg.ot_mode = ot;
  RunResult r;
  opts.op_hook = [&r](std::size_t, std::size_t i, const proto::SecureTensor& t) {
    r.ops.idx.push_back(i);
    r.ops.shares.push_back(t.shares);
  };
  r.logits = std::move(ir::execute_batch(p, params, ctx, {x}, opts).logits.at(0));
  r.rounds = ctx.stats().rounds;
  r.bytes = ctx.stats().total_bytes();
  return r;
}

void expect_same_shares(const RunResult& a, const RunResult& b, const char* what) {
  ASSERT_EQ(a.ops.idx, b.ops.idx) << what;
  for (std::size_t j = 0; j < a.ops.shares.size(); ++j) {
    ASSERT_EQ(a.ops.shares[j].s0, b.ops.shares[j].s0)
        << what << ": op " << a.ops.idx[j] << " share 0 diverged";
    ASSERT_EQ(a.ops.shares[j].s1, b.ops.shares[j].s1)
        << what << ": op " << a.ops.idx[j] << " share 1 diverged";
  }
}

void expect_bit_identical(const nn::Tensor& a, const nn::Tensor& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << what << " logit " << i;
}

/// Measured rounds and bytes must equal profile_program's exactly.
void expect_analytic(const ir::SecureProgram& p, const RunResult& r, const std::string& what) {
  const perf::LatencyModel m(perf::HardwareConfig::zcu104(), perf::NetworkConfig::lan_1gbps());
  const pc::RingConfig rc{};
  const perf::ProgramCost cost = perf::profile_program(m, p, rc.bits, rc.wire_bits);
  EXPECT_EQ(r.rounds, static_cast<std::uint64_t>(cost.total.rounds)) << what;
  EXPECT_EQ(r.bytes, cost.wire_bytes) << what;
}

/// The differential oracle on one trained fixture: the scheduled program
/// and its one-group-per-op twin give bit-identical per-op shares, both
/// measure exactly the analytic rounds/bytes, and scheduling never adds
/// rounds — it must remove some on the residual ResNet proxies.
void expect_oracle_holds(const Trained& t, pc::ExecMode mode, pc::OtMode ot, std::uint64_t seed) {
  ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
  ir::run_standard_passes(p);
  const ir::SecureProgram twin = per_op_groups(p);
  pc::Prng dprng(seed);
  const auto x = nn::Tensor::randn({1, t.md.input_ch, t.md.input_h, t.md.input_w}, dprng, 0.5f);
  const std::string what = t.md.name +
                           (ot == pc::OtMode::dh_masked ? " dh_masked" : " correlated") +
                           (mode == pc::ExecMode::threaded ? " threaded" : " lockstep");
  const RunResult sched = run_program(p, mode, x, ot);
  const RunResult per_op = run_program(twin, mode, x, ot);
  expect_bit_identical(sched.logits, per_op.logits, what.c_str());
  expect_same_shares(sched, per_op, what.c_str());
  expect_analytic(p, sched, what + " scheduled");
  expect_analytic(twin, per_op, what + " per-op groups");
  EXPECT_LE(sched.rounds, per_op.rounds) << what;
  if (t.md.name.rfind("ResNet", 0) == 0) {
    EXPECT_LT(sched.rounds, per_op.rounds) << what;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Scheduled vs one group per op: per-op shares, all models, both modes
// ---------------------------------------------------------------------------

TEST(CompareStaged, PerOpSharesBitIdenticalToEagerOnAllModels) {
  // Grouping never reorders a PRNG or dealer draw, so not just the logits
  // but every intermediate op's secret shares must match bit for bit.
  std::uint64_t seed = 500;
  for (auto& md : all_test_models()) {
    const Trained t = train(md, seed += 2);
    expect_oracle_holds(t, pc::ExecMode::lockstep, pc::OtMode::correlated, seed + 1);
  }
}

TEST(CompareStaged, ThreadedMatchesLockstepBothSchedules) {
  std::uint64_t seed = 600;
  for (auto& md : all_test_models()) {
    const Trained t = train(md, seed += 2);
    expect_oracle_holds(t, pc::ExecMode::threaded, pc::OtMode::correlated, seed + 1);
    // Exchange-bracketed round counting is deterministic across modes, and
    // the threaded shares equal the lockstep ones.
    ir::SecureProgram p = ir::lower(t.md, *t.graph, t.node_of_layer);
    ir::run_standard_passes(p);
    pc::Prng dprng(seed + 1);
    const auto x =
        nn::Tensor::randn({1, t.md.input_ch, t.md.input_h, t.md.input_w}, dprng, 0.5f);
    for (const auto& prog : {p, per_op_groups(p)}) {
      const RunResult lock = run_program(prog, pc::ExecMode::lockstep, x);
      const RunResult thr = run_program(prog, pc::ExecMode::threaded, x);
      expect_same_shares(lock, thr, t.md.name.c_str());
      EXPECT_EQ(lock.rounds, thr.rounds) << t.md.name;
      EXPECT_EQ(lock.bytes, thr.bytes) << t.md.name;
    }
  }
}

TEST(CompareStaged, DhMaskedOtLogitsBitIdenticalToEager) {
  // The full cryptographic OT path: the dance draws its blinding keys from
  // the dedicated ot_prng streams at flush time, so merging OT batches
  // differently never shifts a share-affecting draw — per-op shares stay
  // bit-identical, in both exec modes.
  std::uint64_t seed = 620;
  for (auto& md : all_test_models()) {
    const Trained t = train(md, seed += 2);
    for (const auto mode : {pc::ExecMode::lockstep, pc::ExecMode::threaded}) {
      expect_oracle_holds(t, mode, pc::OtMode::dh_masked, seed + 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Dealer-backed vs TripleStore-backed serving under the staged stack
// ---------------------------------------------------------------------------

namespace {

/// Serves the next stream position of `p` from a claimed store bundle on a
/// fresh canonically seeded context — what a one-lane Workload chunk does,
/// for any grouping of the network's program.
nn::Tensor serve_from_store(const proto::SecureNetwork& snet, const ir::SecureProgram& p,
                            off::TripleStore& store, const nn::Tensor& x) {
  const auto [q, bundle] = store.claim_next();
  pc::TwoPartyContext ctx(snet.ring(), proto::SecureNetwork::query_context_seed(q));
  pc::TripleDealer fallback(snet.ring(), proto::SecureNetwork::query_dealer_seed(q));
  off::StoreTripleSource source(bundle, fallback, off::ExhaustionPolicy::Throw);
  ctx.set_triple_source(&source);
  ir::BatchExecOptions opts;
  opts.cfg = snet.config();
  return std::move(ir::execute_batch(p, snet.params(), ctx, {x}, opts).logits.at(0));
}

}  // namespace

TEST(CompareStaged, StoreBackedStagedServingBitIdenticalAcrossSchedules) {
  for (auto md : {tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool),
                  proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool)}) {
    auto t = train(std::move(md), 640);
    pc::TwoPartyContext ctx_c, ctx_d;
    proto::SecureNetwork scheduled(t.md, *t.graph, t.node_of_layer, ctx_c);
    proto::SecureNetwork dealer(t.md, *t.graph, t.node_of_layer, ctx_d);
    proto::Workload wl_c(scheduled, {proto::WorkloadKind::logits, /*batch=*/1, /*worker_pairs=*/2});
    proto::Workload wl_d(dealer);
    // Round groups shape no triple request, so one plan fingerprint covers
    // every grouping of the program.
    const ir::SecureProgram twin = per_op_groups(scheduled.program());
    ASSERT_EQ(wl_c.plan().fingerprint(), ir::derive_plan(twin, ctx_c.ring()).fingerprint())
        << t.md.name;

    pc::Prng dprng(641);
    std::vector<nn::Tensor> queries;
    for (int q = 0; q < 2; ++q) {
      queries.push_back(
          nn::Tensor::randn({1, t.md.input_ch, t.md.input_h, t.md.input_w}, dprng, 0.8f));
    }
    off::TripleStore store_c = wl_c.preprocess(queries.size());
    off::TripleStore store_twin = wl_c.preprocess(queries.size());
    wl_c.use_store(&store_c);
    const auto out_c = wl_c.run(queries).logits;
    const auto out_d = wl_d.run(queries).logits;  // fused dealer path
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const nn::Tensor out_twin = serve_from_store(scheduled, twin, store_twin, queries[q]);
      expect_bit_identical(out_c[q], out_twin, "store scheduled vs per-op groups");
      expect_bit_identical(out_c[q], out_d[q], "store vs dealer");
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded randomized property tests over adversarial edge values
// ---------------------------------------------------------------------------

namespace {

/// 63-bit non-negative adversarial operands for the millionaire protocol:
/// zeros, ±1 neighbours, digit boundaries, the sign-boundary band and the
/// extremes, padded with seeded randoms.
std::vector<std::uint64_t> adversarial_values(pc::Prng& prng, std::size_t n) {
  const std::uint64_t max63 = (1ULL << 63) - 1;
  std::vector<std::uint64_t> edges = {
      0,
      1,
      2,
      3,
      4,
      (1ULL << 31) - 1,  // 2^31 - 1
      1ULL << 31,
      (1ULL << 31) + 1,
      (1ULL << 62) - 1,
      1ULL << 62,
      max63 - 1,
      max63,
  };
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(i < edges.size() ? edges[i] : prng.next_u64() & max63);
  }
  return out;
}

}  // namespace

TEST(CompareStaged, MillionaireAgreesWithPlaintextOnAdversarialPairs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    pc::TwoPartyContext ctx(pc::RingConfig{}, seed);
    pc::Prng prng(seed * 977);
    const std::size_t n = 24;
    std::vector<std::uint64_t> a = adversarial_values(prng, n);
    std::vector<std::uint64_t> b = adversarial_values(prng, n);
    // Mix in equal and off-by-one pairs (the AND-tree's eq-chain edge).
    for (std::size_t i = 0; i < n; i += 3) b[i] = a[i];
    for (std::size_t i = 1; i < n; i += 4) b[i] = a[i] > 0 ? a[i] - 1 : a[i] + 1;
    const auto mode = seed % 2 == 0 ? pc::OtMode::dh_masked : pc::OtMode::correlated;
    const auto gt = pc::millionaire_gt(ctx, a, b, 63, mode);
    const auto bits = pc::reconstruct_bits(gt);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits[i], a[i] > b[i] ? 1 : 0)
          << "seed " << seed << " pair " << i << ": " << a[i] << " vs " << b[i];
    }
  }
}

TEST(CompareStaged, DreluAgreesWithPlaintextSignOnEdgeValues) {
  const pc::RingConfig rc{};
  // Fixed-point edge ring values: 0, ±1 LSB, ±(2^31 - 1), the two's
  // complement sign boundary and its neighbours, plus seeded randoms.
  const std::uint64_t sign = rc.sign_bit();
  std::vector<std::uint64_t> edges = {
      0,        1,        rc.mask(),          // 0, +eps, -eps
      (1ULL << 31) - 1,   pc::ring_neg((1ULL << 31) - 1, rc),
      sign - 1, sign,     sign + 1,           // most-positive, most-negative
      pc::encode(1.0, rc),  pc::encode(-1.0, rc),
  };
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    pc::TwoPartyContext ctx(rc, seed);
    pc::Prng prng(seed * 31);
    pc::RingVec vals = edges;
    while (vals.size() < 32) vals.push_back(prng.next_u64() & rc.mask());
    const pc::Shared x = pc::share(vals, prng, rc);
    const auto mode = seed % 2 == 0 ? pc::OtMode::dh_masked : pc::OtMode::correlated;
    const auto d = pc::drelu(ctx, x, mode);
    const auto bits = pc::reconstruct_bits(d);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      EXPECT_EQ(bits[i], pc::to_signed(vals[i], rc) >= 0 ? 1 : 0)
          << "seed " << seed << " value " << vals[i];
    }
  }
}

TEST(CompareStaged, StagedReluMatchesBlockingReluSharewise) {
  // The one-shot relu and the executor's StagedRelu drive the same staged
  // machine from the same material, so their shares match exactly.
  const pc::RingConfig rc{};
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    pc::Prng prng(seed);
    pc::RingVec vals(40);
    for (auto& v : vals) v = prng.next_u64() & rc.mask();
    pc::TwoPartyContext ctx_a(rc, 9000 + seed), ctx_b(rc, 9000 + seed);
    const pc::Shared xa = pc::share(vals, prng, rc);
    const pc::Shared out_a = pc::relu(ctx_a, xa, pc::OtMode::correlated);

    // Same context seed, the operator-level staged form.
    proto::SecureTensor sx;
    sx.shape = {1, static_cast<int>(vals.size())};
    sx.shares = xa;
    const pc::Shared out_b =
        pasnet::testing::run_staged(ctx_b, proto::StagedRelu(sx, pc::OtMode::correlated)).shares;
    ASSERT_EQ(out_a.s0, out_b.s0);
    ASSERT_EQ(out_a.s1, out_b.s1);
    EXPECT_EQ(ctx_a.stats().rounds, ctx_b.stats().rounds);
    // Reconstruction matches plaintext ReLU of the signed values.
    const auto r = pc::reconstruct(out_a, rc);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const std::int64_t sv = pc::to_signed(vals[i], rc);
      EXPECT_EQ(pc::to_signed(r[i], rc), sv >= 0 ? sv : 0) << "value " << i;
    }
  }
}
