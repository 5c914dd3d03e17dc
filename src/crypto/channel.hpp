#pragma once
// Duplex channel endpoints between the two computing parties.
//
// `Channel` is the endpoint API every protocol talks to: framed byte
// messages, ring-vector conveniences, round bracketing, and the ONE meter
// (TrafficStats) that counts every byte, message and communication round.
// The meter, its round rule and its bracket state live in this base class;
// a backend only delivers messages and reports each one through
// Channel::account().  The meter is what lets integration tests cross-check
// the measured traffic of the real protocol stack against the analytical
// communication model of src/perf (DESIGN.md E6), and what makes
// bytes/rounds measured over a real TCP connection directly comparable to
// the simulation.  Tracers never count traffic themselves: each metered
// window adds its meter totals to its tracer once (trace_traffic below).
//
// Two backends:
//  - the in-process pair (Channel::make_pair): two endpoints over a shared
//    pair of bounded byte queues and ONE pair-shared meter.  Modes:
//     * lockstep: the historical single-threaded mode.  Both parties run on
//       one thread in protocol order; `recv` on an empty inbox is a protocol
//       ordering bug and throws immediately.  Fully deterministic (used by
//       the analytical-model cross-check tests).
//     * threaded: the concurrent runtime mode.  `recv` blocks until the
//       peer's message arrives and `send` blocks while the peer's inbox is
//       at capacity (bounded queue, mutex + condition variable).  Endpoints
//       may be driven from different threads; a watchdog timeout turns a
//       deadlocked protocol into a loud ChannelTimeout instead of a hang.
//  - net::TransportChannel (src/net): the same endpoint API over a real
//    socket transport, one endpoint (and one meter) per OS process.  Each
//    endpoint accounts both directions (own sends at send time, the peer's
//    at recv time), so a remote endpoint's TrafficStats equal the simulated
//    pair's for the same protocol run.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "crypto/ring.hpp"
#include "obs/tracer.hpp"

namespace pasnet::crypto {

/// Aggregate traffic statistics for one party-pair.
struct TrafficStats {
  std::uint64_t bytes_p0_to_p1 = 0;
  std::uint64_t bytes_p1_to_p0 = 0;
  std::uint64_t messages = 0;
  /// Latency-critical sequential message exchanges.  Outside an exchange
  /// bracket a round increments whenever the sending direction flips (the
  /// asymmetric flows: each OT phase is one round).  Inside a
  /// begin_round/end_round bracket — used by TwoPartyContext::exchange and
  /// the open buffer's coalesced flush — all messages of the bracket count
  /// as ONE round, because both directions are in flight concurrently.
  /// This matches the analytic model's definition (perf::OpCost::rounds),
  /// so measured and modeled round counts are directly comparable.
  std::uint64_t rounds = 0;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_p0_to_p1 + bytes_p1_to_p0;
  }
  void reset() noexcept { *this = TrafficStats{}; }
};

/// Queueing discipline of a channel endpoint (see file comment).  Transport
/// endpoints report `threaded` — their recv blocks on the wire.
enum class ChannelMode { lockstep, threaded };

struct ChannelOptions;

/// Thrown when a blocking send/recv outlives the watchdog timeout — the
/// protocol deadlocked or the peer died.
class ChannelTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by blocked/later operations after close() — the "peer hung up"
/// signal, used to unwind a party thread whose peer failed.
class ChannelClosed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One endpoint of a duplex channel.  The convenience send/recv helpers are
/// implemented over the backend primitives do_send/do_recv; backends also
/// own close semantics.  The meter and round bracketing belong to this
/// base class.
class Channel {
 public:
  /// Default bounded-queue depth and watchdog timeout for an in-process
  /// channel pair — the single canonical pair (ChannelOptions defaults to
  /// them too; net::TransportOptions carries the socket analogs).
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::chrono::milliseconds kDefaultTimeout{30000};

  virtual ~Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sends a raw byte message to the peer.  Blocking backends may block
  /// (full peer inbox / socket back-pressure); the lockstep in-process mode
  /// never blocks.
  void send_bytes(const std::vector<std::uint8_t>& data);
  /// Receives the oldest pending byte message.  The in-process lockstep
  /// mode throws std::logic_error if the inbox is empty (protocol ordering
  /// bug); blocking backends wait for the message (honouring any modeled
  /// in-flight deadline — see ChannelOptions::round_delay).
  [[nodiscard]] std::vector<std::uint8_t> recv_bytes();

  /// Convenience: send/recv a vector of ring elements, 8 bytes each in
  /// memory.  `wire_bytes_per_elem` models the on-wire width (e.g. 4 for a
  /// 32-bit ring) for traffic accounting while keeping u64 storage.
  void send_ring(const RingVec& v, int wire_bytes_per_elem = 8);
  [[nodiscard]] RingVec recv_ring(std::size_t n, int wire_bytes_per_elem = 8);

  /// Convenience: single u64 value.
  void send_u64(std::uint64_t v);
  [[nodiscard]] std::uint64_t recv_u64();

  /// Brackets one symmetric communication round: every message either
  /// endpoint enqueues between begin_round and end_round counts as a single
  /// round (both directions are concurrently in flight).  Driven by the
  /// coordinating thread (TwoPartyContext::exchange), never by a party
  /// closure.  After end_round the next message starts a fresh round
  /// regardless of direction.
  void begin_round();
  void end_round();

  /// Marks the endpoint closed: blocked senders/receivers wake and throw
  /// ChannelClosed, as do later blocking operations that would wait.
  virtual void close() = 0;

  /// Traffic stats of the endpoint (shared by both endpoints of an
  /// in-process pair).  The reference is stable; read it only while no
  /// transfer is in flight (use stats_snapshot() for a consistent copy
  /// during concurrent traffic).
  [[nodiscard]] const TrafficStats& stats() const noexcept { return meter_->stats; }
  /// Locked copy of the stats, safe to take concurrently with transfers.
  [[nodiscard]] TrafficStats stats_snapshot() const;
  /// Zeroes the stats and forgets the last sender (an open bracket stays
  /// open).
  void reset_stats() noexcept;

  [[nodiscard]] virtual ChannelMode mode() const noexcept = 0;

  /// Attaches a tracer (nullptr detaches).  The endpoint adds the time it
  /// spends blocked in send/recv (Counter::send_wait_us / recv_wait_us);
  /// traffic reaches a tracer only through trace_traffic().  Like the
  /// meter, the attachment is shared pair-wide in process (attaching
  /// through either endpoint covers both).  The caller keeps ownership;
  /// the tracer must outlive the attachment.
  void set_tracer(obs::Tracer* tracer) noexcept;

  /// Creates a connected in-process pair of endpoints: first element is
  /// party 0's.
  static std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> make_pair(
      ChannelMode mode = ChannelMode::lockstep, std::size_t capacity = kDefaultCapacity,
      std::chrono::milliseconds timeout = kDefaultTimeout);
  static std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> make_pair(
      const ChannelOptions& options);

 protected:
  /// The meter: traffic totals, the round rule's state and the tracer
  /// attachment, under one lock.  Pair-shared in process, one per endpoint
  /// over a transport.
  struct Meter {
    mutable std::mutex m;
    TrafficStats stats;
    int last_sender = -1;   // sender of the last message outside a bracket
    bool in_round = false;  // begin_round/end_round bracket open
    bool round_counted = false;
    obs::Tracer* tracer = nullptr;
  };

  /// A fresh meter of its own (a transport endpoint).
  Channel() : meter_(std::make_shared<Meter>()) {}
  /// A meter shared with the peer endpoint (the in-process pair).
  explicit Channel(std::shared_ptr<Meter> meter) : meter_(std::move(meter)) {}

  /// Credits one message of `wire_bytes` sent by party `sender` and applies
  /// the round rule.  Backends call it once per message: the in-process
  /// pair before the message can reach the peer (so concurrent endpoints
  /// count rounds in protocol order), a transport endpoint for its own
  /// sends and for each received peer message.
  void account(int sender, std::uint64_t wire_bytes) noexcept;
  /// The attached tracer if it is enabled, else nullptr (for the backends'
  /// wait-time adds).
  [[nodiscard]] obs::Tracer* tracer() const noexcept;

  /// Backend primitive: delivers one framed message to the peer, crediting
  /// `wire_bytes` (the modeled on-wire size, which may differ from
  /// data.size()) to the meter.
  virtual void do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) = 0;
  /// Backend primitive: receives the next framed message.
  [[nodiscard]] virtual std::vector<std::uint8_t> do_recv() = 0;

 private:
  std::shared_ptr<Meter> meter_;
};

/// Adds one metered window's traffic (rounds, per-direction wire bytes,
/// messages) to `tracer`'s counters.  The only place traffic reaches a
/// tracer: the serving layers call it once per window, before they
/// snapshot or merge the window's tracer, so trace counters, exported
/// traces and /metrics all carry the meter's numbers.
void trace_traffic(obs::Tracer& tracer, const TrafficStats& stats) noexcept;

/// Construction knobs for an in-process channel pair.
struct ChannelOptions {
  ChannelMode mode = ChannelMode::lockstep;
  std::size_t capacity = Channel::kDefaultCapacity;
  std::chrono::milliseconds timeout = Channel::kDefaultTimeout;
  /// Simulated one-way wire latency.  Every message is stamped with an
  /// in-flight deadline (enqueue time + round_delay) at send time and recv
  /// waits until that deadline — so messages of one round overlap (a
  /// symmetric exchange costs one delay in both lockstep and threaded
  /// modes) while sequential dependencies pay one delay per round, the
  /// same unit the `rounds` statistic counts (and perf::NetworkConfig's
  /// base_latency_s models).  Zero means no simulated delay.  Waits happen
  /// off the channel lock, so concurrent worker pairs overlap their
  /// delays — the effect batched inference exists to exploit.
  std::chrono::microseconds round_delay{0};
};

}  // namespace pasnet::crypto
