// pibench: private-inference serving benchmark program.
//
// Runs one named workload as a closed loop against the public serving API
// (proto::Workload, net::PartySession, net::DealerServer / DealerClient,
// Workload::preprocess), checks every answer, and prints one JSON result
// line.  The workloads, metrics and the correctness gate are described in
// pibench/README.md; run.py builds this binary, analyses the exported
// trace and prints the final result.
//
//   pibench --workload relu-tcp-dealer|poly-batch|relu-tcp-otext
//           --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// With --trace 0 the whole window is untraced and the end-to-end metrics
// are reported.  With --trace 1 the first half of the window is untraced
// (the baseline of the tracing overhead) and the second half runs with an
// obs::Tracer attached; the per-layer metrics come from that half and its
// Chrome trace is written to --trace-out.
//
// The exit code is 0 when every query passed the gate, 1 when any failed
// (the result line is still printed) and 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/ring_kernels.hpp"
#include "net/dealer.hpp"
#include "net/party_session.hpp"
#include "net/socket.hpp"
#include "offline/ot_triple_source.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"

namespace {

namespace crypto = pasnet::crypto;
namespace ir = pasnet::ir;
namespace net = pasnet::net;
namespace nn = pasnet::nn;
namespace obs = pasnet::obs;
namespace offline = pasnet::offline;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// Model weights are fixed: every run trains the same network from this seed.
constexpr std::uint64_t kWeightSeed = 2023;
/// The measured window is split into this many equal segments.  One
/// offline-phase timing and kSetupsPerSegment throwaway set-ups run between
/// segments (and once before the first), outside the window: host speed
/// drifts over seconds, so timings sampled across the whole run are far
/// steadier from run to run than timings taken in one burst.
constexpr int kSegments = 20;
constexpr int kSetupsPerSegment = 2;
/// Closed-loop warm-up before the measured windows (gated, not measured):
/// thread pools, allocator arenas and socket buffers reach steady state.
constexpr double kWarmupSeconds = 1.0;
/// Dealer store size per second of warm-up and measurement.  The store is
/// claimed one bundle per query (about 1.8 MB each on the ResNet-18 proxy);
/// a run that uses it up ends its window early with fewer samples, so this
/// caps the rate the dealer workload can show at this many queries/s.
constexpr double kStoreQueriesPerSecond = 10.0;

enum class Kind { tcp_dealer, inproc_batch, tcp_otext };

struct Spec {
  std::string name;
  Kind kind;
  nn::ModelDescriptor md;
  /// Standard deviation of the generated query inputs, and the logit bound
  /// against the plaintext model: the values tests/test_secure_network.cpp
  /// uses for the same model family (TinyCNN 1.0 / 0.1, ResNet-18 proxy
  /// 0.5 / 0.25).
  float input_stddev;
  float logit_bound;
  int batch = 1;                ///< lanes per chunk (K)
  int worker_pairs = 1;         ///< in-process chunk workers
  int queries_per_request = 1;  ///< queries carried by one closed-loop request
  /// Queries whose correlated randomness one offline_ms_per_query timing
  /// pregenerates (Workload::preprocess, one generator thread).
  std::size_t offline_probe_queries = 1;
};

std::optional<Spec> spec_by_name(const std::string& name) {
  using pasnet::testing::proxy_resnet;
  using pasnet::testing::tiny_cnn;
  if (name == "relu-tcp-dealer") {
    return Spec{name, Kind::tcp_dealer, proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool),
                0.5f, 0.25f, 1, 1, 1, 32};
  }
  if (name == "poly-batch") {
    return Spec{name, Kind::inproc_batch,
                proxy_resnet(nn::ActKind::x2act, nn::PoolKind::avgpool), 0.5f, 0.25f, 16, 4, 64,
                64};
  }
  if (name == "relu-tcp-otext") {
    return Spec{name, Kind::tcp_otext, tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 1.0f,
                0.1f, 1, 1, 1, 256};
  }
  return std::nullopt;
}

/// Deliberately wrong references, used only by the benchmark's own tests to
/// show that the correctness gate fires.
enum class Fault { none, logits, peer, rounds, bytes, offline };

std::optional<Fault> fault_by_name(const std::string& s) {
  if (s == "none") return Fault::none;
  if (s == "logits") return Fault::logits;
  if (s == "peer") return Fault::peer;
  if (s == "rounds") return Fault::rounds;
  if (s == "bytes") return Fault::bytes;
  if (s == "offline") return Fault::offline;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(std::min(colon + 2, line.size()));
    }
  }
  return "unknown";
}

double loadavg_1min() {
  double l[1] = {0.0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

/// Ordered name -> (value, unit) map printed as the result's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].value);
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------
// Model: trained once per process (excluded from set-up), compiled per set-up
// ---------------------------------------------------------------------------

struct TrainedModel {
  nn::ModelDescriptor md;
  std::unique_ptr<nn::Graph> graph;
  std::vector<int> node_of_layer;

  explicit TrainedModel(const nn::ModelDescriptor& desc) : md(desc) {
    crypto::Prng wprng(kWeightSeed);
    graph = nn::build_graph(md, wprng, &node_of_layer);
    pasnet::testing::warm_up(*graph, md.input_ch, md.input_h, kWeightSeed + 1);
  }
};

/// One compiled network and its serving workload (program + plan).
struct Compiled {
  std::unique_ptr<crypto::TwoPartyContext> ctx;
  std::unique_ptr<proto::SecureNetwork> snet;
  std::unique_ptr<proto::Workload> workload;

  Compiled(TrainedModel& tm, const Spec& spec) {
    proto::SecureConfig cfg;
    cfg.ot_mode = crypto::OtMode::dh_masked;
    ctx = std::make_unique<crypto::TwoPartyContext>();
    snet = std::make_unique<proto::SecureNetwork>(tm.md, *tm.graph, tm.node_of_layer, *ctx, cfg);
    proto::WorkloadOptions wopts;
    wopts.batch = spec.batch;
    wopts.worker_pairs = spec.worker_pairs;
    workload = std::make_unique<proto::Workload>(*snet, wopts);
  }
};

/// The analytic witnesses the measured traffic must equal exactly.
struct Analytic {
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> online;  // lanes -> (rounds, bytes)
  offline::OtExtCost ot_ext;
  Fault fault = Fault::none;

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> online_for(
      const ir::SecureProgram& program, int lanes) {
    auto it = online.find(lanes);
    if (it == online.end()) {
      const perf::LatencyModel lat(perf::HardwareConfig::zcu104(),
                                   perf::NetworkConfig::lan_1gbps());
      const crypto::RingConfig rc;
      const perf::ProgramCost cost = perf::profile_program(lat, program, rc.bits, rc.wire_bits,
                                                           lanes);
      std::uint64_t rounds = static_cast<std::uint64_t>(cost.total.rounds);
      std::uint64_t bytes = cost.wire_bytes;
      if (fault == Fault::rounds) ++rounds;
      if (fault == Fault::bytes) ++bytes;
      it = online.emplace(lanes, std::make_pair(rounds, bytes)).first;
    }
    return it->second;
  }
};

// ---------------------------------------------------------------------------
// Per-query records and the correctness gate
// ---------------------------------------------------------------------------

struct QueryRecord {
  nn::Tensor input;
  nn::Tensor logits;
  std::string transcript_error;  ///< empty when rounds/bytes matched the model
};

/// What the correctness gate found.
struct GateResult {
  std::size_t failed = 0;
  double max_err = 0.0;            ///< max |secure - plaintext| logit over all queries
  std::size_t over_abs_bound = 0;  ///< queries whose error exceeds the unscaled bound
};

/// Gates every query in `recs`.  A query fails when
///  - its measured rounds/bytes differed from the analytic model
///    (recorded while it ran, in transcript_error);
///  - party 0 and party 1 revealed different logits;
///  - its logits differ from the plaintext Graph::forward by more than the
///    model's bound times max(1, max |plaintext logit|): the tests pin the
///    bound on logits of order one, and fixed-point error grows with the
///    magnitude of the values computed;
///  - its argmax differs from the plaintext argmax although the plaintext
///    top-two margin is wider than twice the allowed error (inside that
///    band the two classes are tied at the gate's precision).
/// Prints the first few failures to stderr.
GateResult gate(TrainedModel& tm, const Spec& spec, const std::vector<QueryRecord>& recs,
                const std::vector<nn::Tensor>* peer, Fault fault) {
  GateResult g;
  const int c = tm.md.input_ch, h = tm.md.input_h, w = tm.md.input_w;
  const std::size_t per = static_cast<std::size_t>(c * h * w);
  constexpr std::size_t kForwardBatch = 64;
  for (std::size_t base = 0; base < recs.size(); base += kForwardBatch) {
    const std::size_t n = std::min(kForwardBatch, recs.size() - base);
    nn::Tensor x({static_cast<int>(n), c, h, w});
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(x.data() + i * per, recs[base + i].input.data(), per * sizeof(float));
    }
    nn::Tensor plain = tm.graph->forward(x, false);
    const std::size_t classes = plain.size() / n;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t qi = base + i;
      const QueryRecord& r = recs[qi];
      const float* ref = plain.data() + i * classes;
      float scale = 1.0f;
      for (std::size_t k = 0; k < classes; ++k) scale = std::max(scale, std::abs(ref[k]));
      const float allowed = spec.logit_bound * scale;
      // A deliberately wrong reference: shift one plaintext logit past the bound.
      if (fault == Fault::logits) plain.data()[i * classes] += 2.0f * allowed;
      std::string why = r.transcript_error;
      if (why.empty() && r.logits.size() != classes) why = "logit count differs";
      if (why.empty() && peer != nullptr) {
        const nn::Tensor& p = (*peer)[qi];
        bool same = p.size() == r.logits.size();
        for (std::size_t k = 0; same && k < p.size(); ++k) {
          same = p[k] + (fault == Fault::peer && k == 0 ? 1.0f : 0.0f) == r.logits[k];
        }
        if (!same) why = "party 0 and party 1 revealed different logits";
      }
      if (why.empty()) {
        float err = 0.0f;
        std::size_t arg_secure = 0, arg_plain = 0;
        for (std::size_t k = 0; k < classes; ++k) {
          err = std::max(err, std::abs(r.logits[k] - ref[k]));
          if (r.logits[k] > r.logits[arg_secure]) arg_secure = k;
          if (ref[k] > ref[arg_plain]) arg_plain = k;
        }
        float runner_up = -INFINITY;
        for (std::size_t k = 0; k < classes; ++k) {
          if (k != arg_plain) runner_up = std::max(runner_up, ref[k]);
        }
        g.max_err = std::max(g.max_err, static_cast<double>(err));
        if (err > spec.logit_bound) ++g.over_abs_bound;
        if (err > allowed) {
          why = "logits differ from the plaintext model by " + std::to_string(err) +
                " (allowed " + std::to_string(allowed) + ")";
        } else if (arg_secure != arg_plain && ref[arg_plain] - runner_up > 2.0f * allowed) {
          why = "argmax differs from the plaintext model";
        }
      }
      if (!why.empty()) {
        if (g.failed < 5) std::fprintf(stderr, "query %zu failed: %s\n", qi, why.c_str());
        ++g.failed;
      }
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Rigs: one set-up of a workload's serving stack
// ---------------------------------------------------------------------------

/// Timings of one set-up.
struct SetupTimes {
  double setup_s = 0.0;
  double connect_ms = 0.0;
  double verify_plan_ms = 0.0;
};

/// Hands party 1's thread the next query position (or the stop signal):
/// party 0 decides, in its closed loop, whether another query runs.
class CommandQueue {
 public:
  void push(std::optional<std::size_t> q) {
    {
      std::lock_guard<std::mutex> lk(m_);
      q_.push_back(q);
    }
    cv_.notify_one();
  }
  std::optional<std::size_t> pop() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [this] { return !q_.empty(); });
    const std::optional<std::size_t> q = q_.front();
    q_.pop_front();
    return q;
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::optional<std::size_t>> q_;
};

net::TransportOptions transport_options() {
  net::TransportOptions o;
  o.connect_timeout = std::chrono::milliseconds(10000);
  o.io_timeout = std::chrono::milliseconds(20000);
  return o;
}

/// Two parties over one loopback TCP link: party 0 on the calling thread,
/// party 1 on its own thread, plus (dealer workload) an in-process
/// DealerServer thread both parties claim bundles from.
class TwoPartyRig {
 public:
  TwoPartyRig(TrainedModel& tm, const Spec& spec) : tm_(tm), spec_(spec) {}
  TwoPartyRig(const TwoPartyRig&) = delete;
  TwoPartyRig& operator=(const TwoPartyRig&) = delete;

  ~TwoPartyRig() {
    if (p1_.joinable()) {
      // An unfinished query leaves party 1 blocked on the link: closing
      // party 0's end unblocks it with an error.
      if (!clean_) chan0_.reset();
      cmds_.push(std::nullopt);
      p1_.join();
    }
    session0_.reset();
    dealer0_.reset();
    chan0_.reset();
    if (dealer_thread_.joinable()) dealer_thread_.join();
  }

  /// Compiles, starts the dealer (when `store` is given), connects both
  /// parties and verifies the plan.  Returns the set-up timings.
  SetupTimes setup(std::optional<offline::TripleStore> store) {
    SetupTimes t;
    const auto t0 = Clock::now();
    compiled_ = std::make_unique<Compiled>(tm_, spec_);
    const offline::PreprocessingPlan& plan = compiled_->workload->plan();
    const net::TransportOptions topts = transport_options();
    if (store) {
      dealer_ = std::make_unique<net::DealerServer>(std::move(*store),
                                                    offline::ExhaustionPolicy::Throw);
      dealer_listener_ = std::make_unique<net::Listener>(0);
      dealer_thread_ = std::thread([this, topts] {
        try {
          dealer_->serve(*dealer_listener_, 2, topts);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lk(m_);
          dealer_error_ = e.what();
        }
      });
    }
    listener_ = std::make_unique<net::Listener>(0);
    std::future<void> p1_ready = p1_ready_.get_future();
    p1_ = std::thread([this, topts] { party1(topts); });

    const auto c0 = Clock::now();
    chan0_ = net::dial_party_channel("127.0.0.1", listener_->port(), 0, topts);
    if (dealer_) {
      dealer0_ = std::make_unique<net::DealerClient>("127.0.0.1", dealer_listener_->port(), 0,
                                                     plan.fingerprint(), topts);
    }
    const auto c1 = Clock::now();
    session0_ = std::make_unique<net::PartySession>(0, *chan0_, crypto::RingConfig{});
    session0_->verify_plan(plan);
    const auto c2 = Clock::now();
    p1_ready.get();  // rethrows party 1's set-up failure
    t.setup_s = seconds_between(t0, Clock::now());
    t.connect_ms = seconds_between(c0, c1) * 1e3;
    t.verify_plan_ms = seconds_between(c1, c2) * 1e3;

    ropts0_ = session_options(0);
    ropts0_.offline_stats_out = &offline_stats_;
    ropts0_.offline_trace_out = &offline_trace_;
    return t;
  }

  [[nodiscard]] Compiled& compiled() { return *compiled_; }
  [[nodiscard]] net::DealerServer* dealer() { return dealer_.get(); }
  void set_tracer(obs::Tracer* tracer) { session0_->set_tracer(tracer); }

  /// Runs query position `q` on both parties; returns party 0's logits.
  nn::Tensor query(std::size_t q, const nn::Tensor& input, crypto::TrafficStats* stats,
                   crypto::TrafficStats* offline_stats, obs::CounterSnapshot* trace,
                   obs::CounterSnapshot* offline_trace) {
    clean_ = false;
    cmds_.push(q);
    const std::vector<nn::Tensor> inputs{input};
    ir::BatchExecResult res =
        session0_->run_batch(compiled_->workload->program(), compiled_->snet->params(), q,
                             &inputs, 1, ropts0_, stats, trace);
    if (offline_stats != nullptr) *offline_stats = offline_stats_;
    if (offline_trace != nullptr) *offline_trace = offline_trace_;
    clean_ = true;
    return std::move(res.logits.at(0));
  }

  /// Stops party 1 and the dealer; returns party 1's logits in query order
  /// and rethrows the first error either thread hit.
  std::vector<nn::Tensor> finish() {
    cmds_.push(std::nullopt);
    p1_.join();
    session0_.reset();
    dealer0_.reset();
    chan0_.reset();
    if (dealer_thread_.joinable()) dealer_thread_.join();
    std::lock_guard<std::mutex> lk(m_);
    if (!p1_error_.empty()) throw std::runtime_error("party 1: " + p1_error_);
    if (!dealer_error_.empty()) throw std::runtime_error("dealer: " + dealer_error_);
    return std::move(p1_logits_);
  }

 private:
  [[nodiscard]] net::RemoteSessionOptions session_options(int party) const {
    net::RemoteSessionOptions o;
    o.cfg = compiled_->snet->config();
    if (spec_.kind == Kind::tcp_dealer) {
      o.source = net::TripleSourceKind::dealer;
      o.dealer = party == 0 ? dealer0_.get() : nullptr;
    } else {
      o.source = net::TripleSourceKind::ot_ext;
      o.plan = &compiled_->workload->plan();
    }
    return o;
  }

  void party1(const net::TransportOptions& topts) {
    bool set_up = false;
    try {
      const offline::PreprocessingPlan& plan = compiled_->workload->plan();
      std::unique_ptr<net::TransportChannel> chan = net::serve_party_channel(*listener_, 1, topts);
      std::unique_ptr<net::DealerClient> dealer;
      if (dealer_) {
        dealer = std::make_unique<net::DealerClient>("127.0.0.1", dealer_listener_->port(), 1,
                                                     plan.fingerprint(), topts);
      }
      net::PartySession session(1, *chan, crypto::RingConfig{});
      session.verify_plan(plan);
      net::RemoteSessionOptions ropts = session_options(1);
      ropts.dealer = dealer.get();
      set_up = true;
      p1_ready_.set_value();
      while (const std::optional<std::size_t> q = cmds_.pop()) {
        ir::BatchExecResult res = session.run_batch(compiled_->workload->program(),
                                                    compiled_->snet->params(), *q, nullptr, 1,
                                                    ropts);
        std::lock_guard<std::mutex> lk(m_);
        p1_logits_.push_back(std::move(res.logits.at(0)));
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(m_);
      p1_error_ = e.what();
      if (!set_up) p1_ready_.set_exception(std::current_exception());
    }
  }

  TrainedModel& tm_;
  const Spec& spec_;
  std::unique_ptr<Compiled> compiled_;
  std::unique_ptr<net::DealerServer> dealer_;
  std::unique_ptr<net::Listener> dealer_listener_;
  std::unique_ptr<net::Listener> listener_;
  std::promise<void> p1_ready_;
  std::unique_ptr<net::TransportChannel> chan0_;
  std::unique_ptr<net::DealerClient> dealer0_;
  std::unique_ptr<net::PartySession> session0_;
  net::RemoteSessionOptions ropts0_;
  crypto::TrafficStats offline_stats_;
  obs::CounterSnapshot offline_trace_;
  CommandQueue cmds_;
  bool clean_ = true;
  std::mutex m_;  // guards the three fields below
  std::vector<nn::Tensor> p1_logits_;
  std::string p1_error_;
  std::string dealer_error_;
  std::thread p1_;             // declared after everything party1() uses
  std::thread dealer_thread_;  // likewise for DealerServer::serve
};

// ---------------------------------------------------------------------------
// The measured closed loop
// ---------------------------------------------------------------------------

/// What one measured window produced.
struct Window {
  std::vector<double> request_ms;  ///< one per request
  std::size_t queries = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t comm_bytes = 0;       ///< online accounted bytes (TrafficStats)
  std::uint64_t offline_bytes = 0;    ///< ot-ext offline accounted bytes
  obs::CounterSnapshot online_trace;  ///< traced windows only
  obs::CounterSnapshot offline_trace;
  /// [begin, end] of every request in obs::Tracer::now_us() time (traced).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> request_spans;
};

struct Runner {
  TrainedModel& tm;
  const Spec& spec;
  Analytic& analytic;
  crypto::Prng input_prng;
  std::vector<QueryRecord> records;

  nn::Tensor next_input() {
    return nn::Tensor::randn({1, tm.md.input_ch, tm.md.input_h, tm.md.input_w}, input_prng,
                             spec.input_stddev);
  }

  std::string check_online(const ir::SecureProgram& program, int lanes, std::uint64_t rounds,
                            std::uint64_t bytes, const char* what) {
    const auto [want_rounds, want_bytes] = analytic.online_for(program, lanes);
    if (rounds == want_rounds && bytes == want_bytes) return {};
    return std::string(what) + " rounds/bytes " + std::to_string(rounds) + "/" +
           std::to_string(bytes) + " differ from perf::profile_program " +
           std::to_string(want_rounds) + "/" + std::to_string(want_bytes);
  }

  /// Two-party closed loop: one query in flight, positions continue from
  /// `next_q`; adds `seconds` (less at `max_queries`) of requests to `w`.
  void run_two_party(Window& w, TwoPartyRig& rig, double seconds, std::size_t& next_q,
                     std::size_t max_queries, obs::Tracer* tracer) {
    rig.set_tracer(tracer);
    const ir::SecureProgram& program = rig.compiled().workload->program();
    const bool otext = spec.kind == Kind::tcp_otext;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    while (seconds_between(t0, Clock::now()) < seconds && next_q < max_queries) {
      QueryRecord rec;
      rec.input = next_input();
      crypto::TrafficStats stats, offline_stats;
      obs::CounterSnapshot trace, offline_trace;
      const std::uint64_t us0 = obs::Tracer::now_us();
      const auto q0 = Clock::now();
      rec.logits = rig.query(next_q, rec.input, &stats, otext ? &offline_stats : nullptr,
                             tracer ? &trace : nullptr, tracer && otext ? &offline_trace
                                                                         : nullptr);
      w.request_ms.push_back(seconds_between(q0, Clock::now()) * 1e3);
      if (tracer) w.request_spans.emplace_back(us0, obs::Tracer::now_us());
      ++next_q;
      ++w.queries;
      w.comm_bytes += stats.total_bytes();
      rec.transcript_error = check_online(program, 1, stats.rounds, stats.total_bytes(),
                                          "online");
      if (rec.transcript_error.empty() && tracer) {
        rec.transcript_error = check_online(program, 1, trace[obs::Counter::rounds],
                                            trace.total_bytes(), "traced online");
      }
      if (otext) {
        w.offline_bytes += offline_stats.total_bytes();
        const offline::OtExtCost& c = analytic.ot_ext;
        const bool stats_ok = offline_stats.total_bytes() == c.total_bytes() &&
                              offline_stats.rounds == c.rounds &&
                              offline_stats.messages == c.messages;
        const bool trace_ok = !tracer || (offline_trace.total_bytes() == c.total_bytes() &&
                                          offline_trace[obs::Counter::rounds] == c.rounds);
        if (rec.transcript_error.empty() && !(stats_ok && trace_ok)) {
          rec.transcript_error = "ot-ext offline traffic " +
                                 std::to_string(offline_stats.total_bytes()) + " B / " +
                                 std::to_string(offline_stats.rounds) +
                                 " rounds differs from offline::ot_ext_generation_cost " +
                                 std::to_string(c.total_bytes()) + " B / " +
                                 std::to_string(c.rounds) + " rounds";
        }
        w.offline_trace += offline_trace;
      }
      w.online_trace += trace;
      records.push_back(std::move(rec));
    }
    w.wall_s += seconds_between(t0, Clock::now());
    w.cpu_s += process_cpu_seconds() - cpu0;
    rig.set_tracer(nullptr);
  }

  /// In-process closed loop: one Workload::run() of queries_per_request
  /// queries at a time; adds `seconds` of requests to `w`.
  void run_batch(Window& w, Compiled& compiled, double seconds, obs::Tracer* tracer) {
    proto::Workload& wl = *compiled.workload;
    wl.set_tracer(tracer);
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    while (seconds_between(t0, Clock::now()) < seconds) {
      std::vector<nn::Tensor> inputs;
      inputs.reserve(static_cast<std::size_t>(spec.queries_per_request));
      for (int i = 0; i < spec.queries_per_request; ++i) inputs.push_back(next_input());
      const std::uint64_t us0 = obs::Tracer::now_us();
      const auto q0 = Clock::now();
      proto::WorkloadResult res = wl.run(inputs);
      w.request_ms.push_back(seconds_between(q0, Clock::now()) * 1e3);
      if (tracer) w.request_spans.emplace_back(us0, obs::Tracer::now_us());
      const std::size_t first = records.size();
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        records.push_back(QueryRecord{std::move(inputs[i]), std::move(res.logits.at(i)), {}});
      }
      for (const proto::ChunkStats& cs : wl.chunk_stats()) {
        const int lanes = static_cast<int>(cs.queries);
        w.comm_bytes += cs.totals.comm_bytes;
        std::string err = check_online(wl.program(), lanes, cs.totals.rounds,
                                       cs.totals.comm_bytes, "chunk");
        if (err.empty() && tracer) {
          err = check_online(wl.program(), lanes, cs.trace[obs::Counter::rounds],
                             cs.trace.total_bytes(), "traced chunk");
        }
        const std::size_t lane0 = first + (cs.first_query - (wl.queries_served() - inputs.size()));
        for (std::size_t j = 0; j < cs.queries && !err.empty(); ++j) {
          records.at(lane0 + j).transcript_error = err;
        }
        w.online_trace += cs.trace;
      }
      w.queries += inputs.size();
    }
    w.wall_s += seconds_between(t0, Clock::now());
    w.cpu_s += process_cpu_seconds() - cpu0;
    wl.set_tracer(nullptr);
  }
};

/// Slowest / median chunk duration of each request, averaged over requests.
double straggler_ratio(const std::vector<obs::TraceEvent>& events, const Window& w) {
  std::vector<double> ratios;
  for (const auto& [b, e] : w.request_spans) {
    std::vector<double> chunks;
    for (const obs::TraceEvent& ev : events) {
      const bool chunk = (std::strcmp(ev.cat, "proto") == 0 && ev.name == "chunk") ||
                         (std::strcmp(ev.cat, "net") == 0 && ev.name == "run_batch");
      if (chunk && ev.ts_us >= b && ev.ts_us + ev.dur_us <= e) {
        chunks.push_back(static_cast<double>(ev.dur_us));
      }
    }
    if (chunks.empty()) continue;
    const double med = median(chunks);
    if (med > 0) ratios.push_back(*std::max_element(chunks.begin(), chunks.end()) / med);
  }
  if (ratios.empty()) return 1.0;
  double sum = 0.0;
  for (const double r : ratios) sum += r;
  return sum / static_cast<double>(ratios.size());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "pibench-trace.json";
  Fault fault = Fault::none;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "pibench: %s\nusage: pibench --workload relu-tcp-dealer|poly-batch|relu-tcp-otext "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
               "[--fault none|logits|peer|rounds|bytes|offline]\n",
               msg);
  return 2;
}

int run(const Args& args) {
  const std::optional<Spec> maybe_spec = spec_by_name(args.workload);
  if (!maybe_spec) return usage("unknown workload");
  const Spec& spec = *maybe_spec;
  const bool two_party = spec.kind != Kind::inproc_batch;
  const double load_start = loadavg_1min();

  TrainedModel tm(spec.md);
  Analytic analytic;
  analytic.fault = args.fault;

  // --- offline phase and set-up ---------------------------------------------
  // Both are timed between the measured windows' segments, so they are
  // sampled across the whole run, as the online metrics are.
  const Compiled generator(tm, spec);
  const proto::Workload& gen_wl = *generator.workload;
  const auto pregenerate = [&](std::size_t n) { return gen_wl.preprocess(n, 1); };
  std::vector<double> offline_ms;
  double store_mb_per_query = 0.0;
  const auto probe_offline = [&] {
    const std::size_t n = spec.offline_probe_queries;
    const auto g0 = Clock::now();
    const offline::TripleStore s = pregenerate(n);
    offline_ms.push_back(seconds_between(g0, Clock::now()) * 1e3 / static_cast<double>(n));
    store_mb_per_query = static_cast<double>(s.material_bytes()) / 1e6 / static_cast<double>(n);
  };

  std::vector<double> setup_s, connect_ms, verify_ms;
  const auto record = [&](const SetupTimes& t) {
    setup_s.push_back(t.setup_s);
    connect_ms.push_back(t.connect_ms);
    verify_ms.push_back(t.verify_plan_ms);
  };
  // Throwaway set-ups (the dealer ones with a one-bundle store).
  const auto setup_reps = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      if (two_party) {
        TwoPartyRig r(tm, spec);
        std::optional<offline::TripleStore> store;
        if (spec.kind == Kind::tcp_dealer) store = pregenerate(1);
        record(r.setup(std::move(store)));
        (void)r.finish();
      } else {
        const auto t0 = Clock::now();
        const Compiled c(tm, spec);
        record(SetupTimes{seconds_between(t0, Clock::now()), 0.0, 0.0});
      }
    }
  };

  probe_offline();
  setup_reps(kSetupsPerSegment);
  // The serving set-up; the dealer's store comes from Workload::preprocess.
  const std::size_t store_queries = static_cast<std::size_t>(
      std::ceil((kWarmupSeconds + args.seconds) * kStoreQueriesPerSecond));
  std::unique_ptr<TwoPartyRig> rig;
  std::unique_ptr<Compiled> compiled;
  if (two_party) {
    rig = std::make_unique<TwoPartyRig>(tm, spec);
    std::optional<offline::TripleStore> store;
    if (spec.kind == Kind::tcp_dealer) store = pregenerate(store_queries);
    record(rig->setup(std::move(store)));
  } else {
    const auto t0 = Clock::now();
    compiled = std::make_unique<Compiled>(tm, spec);
    record(SetupTimes{seconds_between(t0, Clock::now()), 0.0, 0.0});
  }
  if (spec.kind == Kind::tcp_otext) {
    analytic.ot_ext = offline::ot_ext_generation_cost(gen_wl.plan(), 1);
    if (args.fault == Fault::offline) ++analytic.ot_ext.bytes_p0_to_p1;
  }

  // --- measured windows ----------------------------------------------------
  Runner runner{tm, spec, analytic, crypto::Prng(args.seed), {}};
  std::size_t next_q = 0;
  const std::size_t max_queries = spec.kind == Kind::tcp_dealer ? store_queries : SIZE_MAX;
  obs::Tracer tracer(true);
  Window warmup, untraced, traced;
  const auto run_segment = [&](Window& w, double seconds, obs::Tracer* t) {
    if (two_party) {
      runner.run_two_party(w, *rig, seconds, next_q, max_queries, t);
    } else {
      runner.run_batch(w, *compiled, seconds, t);
    }
  };
  const auto measure = [&](Window& w, double seconds, int segments, obs::Tracer* t) {
    for (int i = 0; i < segments; ++i) {
      run_segment(w, seconds / segments, t);
      probe_offline();
      setup_reps(kSetupsPerSegment);
    }
  };
  std::vector<nn::Tensor> peer;
  std::uint64_t dealer_bytes = 0;
  std::string error;
  try {
    run_segment(warmup, kWarmupSeconds, nullptr);
    if (args.trace) {
      measure(untraced, args.seconds / 2, kSegments / 2, nullptr);
      net::DealerServer* dealer = two_party ? rig->dealer() : nullptr;
      const std::uint64_t d0 = dealer ? dealer->stats_snapshot().bundle_bytes : 0;
      measure(traced, args.seconds / 2, kSegments / 2, &tracer);
      if (dealer) dealer_bytes = dealer->stats_snapshot().bundle_bytes - d0;
    } else {
      measure(untraced, args.seconds, kSegments, nullptr);
    }
    if (two_party) peer = rig->finish();
  } catch (const std::exception& e) {
    error = e.what();
    std::fprintf(stderr, "run aborted: %s\n", error.c_str());
  }
  rig.reset();

  // --- correctness gate ----------------------------------------------------
  const std::size_t attempted = runner.records.size() + (error.empty() ? 0 : 1);
  std::size_t failed = error.empty() ? 0 : 1;
  if (two_party && error.empty() && peer.size() != runner.records.size()) {
    error = "party 1 returned " + std::to_string(peer.size()) + " results for " +
            std::to_string(runner.records.size()) + " queries";
    failed = 1;
  }
  const GateResult g = gate(tm, spec, runner.records,
                            two_party && error.empty() ? &peer : nullptr, args.fault);
  failed += g.failed;

  // --- metrics -------------------------------------------------------------
  double traced_mean_ms = 0.0;
  for (const double v : traced.request_ms) traced_mean_ms += v;
  if (traced.queries > 0) traced_mean_ms /= static_cast<double>(traced.queries);
  Metrics m;
  const Window& e2e = untraced;
  const double e2e_q = static_cast<double>(std::max<std::size_t>(e2e.queries, 1));
  if (!args.trace) {
    // Every request carries the same number of queries, so request latency
    // quantiles are query latency quantiles.
    m.add("qps", static_cast<double>(e2e.queries) / e2e.wall_s, "1/s");
    m.add("query_ms_p50", quantile(e2e.request_ms, 0.5), "ms");
    m.add("query_ms_p90", quantile(e2e.request_ms, 0.9), "ms");
    m.add("cpu_ms_per_query", e2e.cpu_s * 1e3 / e2e_q, "ms");
    m.add("comm_MB_per_query", static_cast<double>(e2e.comm_bytes) / 1e6 / e2e_q, "MB");
    // The fastest timing: other tenants' load on a shared host only ever
    // slows a timing down, and it comes and goes over seconds, so the
    // fastest of timings spread across the run is the steadiest estimate of
    // the work's own cost (the traced run reports the median).
    m.add("offline_ms_per_query", *std::min_element(offline_ms.begin(), offline_ms.end()), "ms");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_MB", peak_rss_mb(), "MB");
  } else {
    const double tq = static_cast<double>(std::max<std::size_t>(traced.queries, 1));
    const obs::CounterSnapshot& on = traced.online_trace;
    const obs::CounterSnapshot all = tracer.snapshot();
    const auto per_q = [&](obs::Counter c) { return static_cast<double>(on[c]) / tq; };
    m.add("crypto.ot_instances_per_query", per_q(obs::Counter::ot_messages), "count");
    m.add("crypto.ot_batches_per_query", per_q(obs::Counter::ot_batches), "count");
    m.add("crypto.rounds_per_query", per_q(obs::Counter::rounds), "count");
    m.add("crypto.open_flushes_per_query", per_q(obs::Counter::open_flushes), "count");
    m.add("crypto.and_levels_per_query", per_q(obs::Counter::and_levels), "count");
    m.add("crypto.kernel_Melems_per_query", per_q(obs::Counter::kernel_elems) / 1e6, "Melem");
    m.add("crypto.triple_claims_per_query", per_q(obs::Counter::triple_claims), "count");
    const double untraced_qps = static_cast<double>(untraced.queries) / untraced.wall_s;
    const double traced_qps = static_cast<double>(traced.queries) / traced.wall_s;
    const auto sample_ms = [&](obs::Sample smp, double q) {
      return static_cast<double>(tracer.percentile(smp, q)) / 1e3;
    };
    m.add("proto.chunk_ms_p50", sample_ms(obs::Sample::chunk_us, 0.5), "ms");
    m.add("proto.chunk_ms_p90", sample_ms(obs::Sample::chunk_us, 0.9), "ms");
    m.add("proto.cores_used", traced.cpu_s / traced.wall_s, "cores");
    m.add("proto.chunk_straggler_ratio", straggler_ratio(tracer.events(), traced), "ratio");
    m.add("net.connect_ms", median(connect_ms), "ms");
    m.add("net.verify_plan_ms", median(verify_ms), "ms");
    m.add("net.run_batch_ms_per_query", two_party ? traced_mean_ms : 0.0, "ms");
    m.add("net.socket_wait_ms_per_query",
          static_cast<double>(all[obs::Counter::recv_wait_us] + all[obs::Counter::send_wait_us]) /
              1e3 / tq,
          "ms");
    m.add("net.wire_MB_per_query",
          static_cast<double>(on.total_bytes() + traced.offline_trace.total_bytes()) / 1e6 / tq,
          "MB");
    m.add("net.messages_per_query",
          static_cast<double>(on[obs::Counter::messages] +
                              traced.offline_trace[obs::Counter::messages]) /
              tq,
          "count");
    m.add("net.dealer_claim_ms_p50", sample_ms(obs::Sample::dealer_claim_us, 0.5), "ms");
    m.add("net.dealer_claim_ms_p90", sample_ms(obs::Sample::dealer_claim_us, 0.9), "ms");
    m.add("net.dealer_MB_per_query", static_cast<double>(dealer_bytes) / 1e6 / tq, "MB");
    m.add("offline.preprocess_ms_per_query", median(offline_ms), "ms");
    m.add("offline.store_MB_per_query", store_mb_per_query, "MB");
    m.add("offline.ot_ext_MB_per_query", static_cast<double>(traced.offline_bytes) / 1e6 / tq,
          "MB");
    m.add("offline.ot_ext_cots_per_query",
          static_cast<double>(traced.offline_trace[obs::Counter::ot_ext_cots]) / tq, "count");
    m.add("proto.max_logit_err", g.max_err, "logit");
    m.add("proto.abs_bound_exceeded_share",
          static_cast<double>(g.over_abs_bound) /
              static_cast<double>(std::max<std::size_t>(runner.records.size(), 1)),
          "ratio");
    m.add("obs.trace_overhead_ratio", traced_qps / untraced_qps, "ratio");
    if (!args.trace_out.empty()) tracer.write_chrome_trace_file(args.trace_out, 0, "pibench");
    std::printf("traced window: %zu queries, mean %.3f ms per query\n", traced.queries,
                traced_mean_ms);
    std::printf("trace: %zu spans written to %s\n", tracer.event_count(), args.trace_out.c_str());
  }

  const double load_end = loadavg_1min();
  std::printf("workload %s seed %llu: %zu queries attempted, %zu failed, max |logit - plain| "
              "%.5f (bound %.2f x max(1, |logit|); %zu over the unscaled bound)%s%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), attempted, failed,
              g.max_err, static_cast<double>(spec.logit_bound), g.over_abs_bound,
              error.empty() ? "" : "; error: ",
              error.c_str());
  char env[4096];
  std::snprintf(env, sizeof(env),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
                "\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"build_type\": \"%s\", "
                "\"kernel_backend\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
                "\"loadavg_start\": %.2f, \"loadavg_end\": %.2f, \"setup_reps\": %zu, "
                "\"traced_queries\": %zu, \"traced_query_ms_mean\": %.17g}",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, json_escape(PIBENCH_COMPILER).c_str(),
                json_escape(PIBENCH_CXX_FLAGS).c_str(), json_escape(PIBENCH_BUILD_TYPE).c_str(),
                crypto::kern::backend_name(crypto::kern::active_backend()),
                json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
                load_start, load_end, setup_s.size(), traced.queries, traced_mean_ms);
  const bool correct = failed == 0 && error.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s, "
              "\"env\": %s}\n",
              correct ? "true" : "false", std::max<std::size_t>(attempted, 1), failed,
              m.json().c_str(), env);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = val;
      } else if (flag == "--seed") {
        args.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(val);
      } else if (flag == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else if (flag == "--trace-out") {
        args.trace_out = val;
      } else if (flag == "--fault") {
        const std::optional<Fault> f = fault_by_name(val);
        if (!f) return usage("unknown --fault");
        args.fault = *f;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) return usage("--workload is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pibench: %s\n", e.what());
    return 1;
  }
}
