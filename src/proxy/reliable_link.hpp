// The reliable MPI data plane, both ends of one link.
//
// Every outgoing data link (proxy -> peer site, proxy -> node, node agent ->
// proxy) is one ReliableLink: it numbers the kMpiBatch envelopes it sends,
// keeps each one in its SenderWindow until a kMpiBatchAck covers it, and
// resends what its RTO timer finds overdue. Every receiver keeps one
// BatchCoverage: per batch origin, the seqs it has delivered, which answers
// both "is this a duplicate?" and "what do I ack?".
//
// One rule makes the two halves agree: each origin names exactly one seq
// space, numbered from 1. A proxy sends under its site id and keeps one
// link (one seq space) per peer or node; a node agent sends under
// "<site>/<node>" on its single link. No sender restarts at seq 1 under a
// name a receiver has already seen: a peer link that reconnects keeps its
// ReliableLink, attach_node refuses a node name twice, and a re-homed node
// attaches to its new shard as "<new shard>/<node>". Receivers therefore
// never trim coverage; instead a sender never leaves a permanent gap — an
// in-flight batch whose apps all closed stays tracked as a zero-frame
// kMpiBatch until an ack covers it — so the out-of-order part of a
// coverage record stays bounded by the sender's window.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "common/clock.hpp"
#include "proto/messages.hpp"
#include "proxy/connection.hpp"
#include "proxy/sender_window.hpp"
#include "telemetry/metrics.hpp"

namespace pg::proxy {

/// Retransmission and congestion tuning shared by every link of a proxy and
/// by the node agents homed on it (the grid builder copies it whole).
struct ReliableLinkConfig {
  /// Retransmission timeout before any RTT sample exists; once acks flow,
  /// the live RTO is srtt + 4*rttvar, clamped to [rto_initial / 4, rto_max].
  TimeMicros rto_initial = 50 * 1000;
  /// Backoff ceiling for repeated retransmissions of the same batch.
  TimeMicros rto_max = 2 * kMicrosPerSecond;
  /// Ceiling of the link's AIMD in-flight budget (congestion window): it
  /// grows additively per acked batch up to this and halves on an RTO;
  /// the proxy's batcher defers draining while unacked bytes exceed it.
  std::size_t inflight_max_bytes = 1024 * 1024;
};

/// Registry instruments a link reports into, labelled by its owner.
struct LinkInstruments {
  telemetry::Counter& retransmits;     // pg_mpi_retransmit_total
  telemetry::Histogram& ack_rtt;       // pg_mpi_ack_rtt_micros
  telemetry::Gauge& inflight_bytes;    // pg_mpi_inflight_bytes
};

/// Sender side of one data link. Thread-safe: one lock covers seq
/// allocation, tracking, ack application, retransmission and drop_app, so
/// concurrent senders can never share a seq.
class ReliableLink {
 public:
  /// `origin` is the sender identity stamped on every batch; `resolve`
  /// returns the link's current connection (re-resolved per retransmission
  /// so a reconnected link is picked up), or null.
  ReliableLink(const ReliableLinkConfig& config, std::string origin,
               std::function<Connection*()> resolve,
               LinkInstruments instruments);
  ~ReliableLink();

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// Stamps `batch` with the origin and the next seq, tracks it (before the
  /// send, since the ack may race back on another thread), arms the RTO
  /// timer and sends it on `conn`.
  Status send(Connection& conn, proto::MpiBatch& batch,
              std::map<std::uint64_t, std::size_t> frames_per_app);

  /// Applies an ack received on this link. Acks naming another origin are
  /// ignored. Returns the number of batches released.
  std::size_t on_ack(const proto::MpiBatchAck& ack);

  /// Strips an app's frames from in-flight batches (see SenderWindow::
  /// drop_app); returns the number of frames dropped.
  std::size_t drop_app(std::uint64_t app_id);

  /// True while the congestion window has room for another batch.
  bool can_send() const;
  /// Current AIMD chunk budget in bytes.
  std::size_t budget_bytes() const;
  /// Batches sent and not yet acknowledged (stripped ones included).
  std::size_t inflight_batches() const;

  /// Cancels the RTO timer (waiting out a running one) and stops re-arming
  /// it; releases the link's bytes from the in-flight gauge. Idempotent.
  void shutdown();

 private:
  /// Arms the one-shot RTO timer for the earliest deadline. Call with
  /// mutex_ held; no-op when armed (or firing), idle, or shut down.
  void arm_locked();
  /// Reactor-timer callback: resends every batch whose RTO passed, re-arms.
  void fire();

  const std::string origin_;
  const std::function<Connection*()> resolve_;
  LinkInstruments instruments_;
  mutable std::mutex mutex_;
  SenderWindow window_;  // guarded by mutex_
  /// Armed or running timer id; stays set while fire() runs so concurrent
  /// senders leave the re-arm to it and shutdown() can wait it out.
  std::uint64_t timer_ = 0;  // guarded by mutex_
  bool stopped_ = false;     // guarded by mutex_
};

/// Receiver side: per origin, every seq delivered so far — a cumulative
/// point plus the out-of-order seqs above it. Thread-safe.
class BatchCoverage {
 public:
  /// Most seqs an ack's selective list carries.
  static constexpr std::size_t kMaxSelective = 64;

  struct Verdict {
    /// The batch was delivered before: drop it, but still send the ack
    /// (re-acking a duplicate is how a lost ack heals).
    bool duplicate = false;
    /// Coverage to send back: `cumulative` plus, when the arriving seq is
    /// above it, that seq and up to kMaxSelective - 1 other out-of-order
    /// seqs. In-order traffic acks with an empty selective list.
    proto::MpiBatchAck ack;
  };

  /// Records the arrival of (origin, seq).
  Verdict record(const std::string& origin, std::uint64_t seq);

 private:
  struct Record {
    std::uint64_t cumulative = 0;
    std::set<std::uint64_t> above;
  };

  std::mutex mutex_;
  std::map<std::string, Record> records_;
};

}  // namespace pg::proxy
