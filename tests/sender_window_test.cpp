// Unit tests for the reliable data plane: the sender-side state
// (SenderWindow: tracking, ack release, RTO backoff, AIMD budget), the link
// that owns it (ReliableLink: seq allocation under concurrent senders, the
// zero-frame stub a closed app leaves behind) and the receiver-side
// coverage record (BatchCoverage: duplicates and cumulative + selective
// acks).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "net/memory_channel.hpp"
#include "proxy/reliable_link.hpp"
#include "proxy/sender_window.hpp"
#include "tls/link.hpp"

namespace pg::proxy {
namespace {

Bytes wire_of(std::size_t n) { return Bytes(n, 0xab); }

SenderWindowConfig small_config() {
  SenderWindowConfig config;
  config.rto_initial_micros = 1000;
  config.rto_max_micros = 64 * 1000;
  config.budget_floor_bytes = 100;
  config.budget_max_bytes = 1000;
  return config;
}

TEST(SenderWindow, SeqsAreContiguousFromOne) {
  SenderWindow window(small_config());
  EXPECT_EQ(window.next_seq(), 1u);
  EXPECT_EQ(window.next_seq(), 2u);
  EXPECT_EQ(window.next_seq(), 3u);
}

TEST(SenderWindow, CumulativeAckReleasesPrefix) {
  SenderWindow window(small_config());
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    window.track(window.next_seq(), wire_of(10), {{7, 1}}, 1000);
  }
  EXPECT_EQ(window.inflight_batches(), 3u);
  EXPECT_EQ(window.inflight_bytes(), 30u);

  const AckOutcome out = window.on_ack(2, {}, 1500);
  EXPECT_EQ(out.released, 2u);
  EXPECT_EQ(out.released_bytes, 20u);
  EXPECT_EQ(window.inflight_batches(), 1u);
  EXPECT_EQ(window.inflight_bytes(), 10u);
  // Both releases were clean sends, so both sampled RTT (500us each).
  ASSERT_EQ(out.rtt_samples.size(), 2u);
  EXPECT_EQ(out.rtt_samples[0], 500u);
  EXPECT_EQ(window.srtt_micros(), 500u);
}

TEST(SenderWindow, SelectiveAckReleasesOutOfOrderSeq) {
  SenderWindow window(small_config());
  for (int i = 0; i < 3; ++i)
    window.track(window.next_seq(), wire_of(10), {{7, 1}}, 1000);
  // Receiver saw 1 and 3 but not 2: cumulative 1, selective {3}.
  const AckOutcome out = window.on_ack(1, {3}, 1200);
  EXPECT_EQ(out.released, 2u);
  EXPECT_EQ(window.inflight_batches(), 1u);
  // Seq 2 is still in flight and retransmittable.
  const std::vector<Retransmit> due = window.take_due(1000 + 2000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].seq, 2u);
}

TEST(SenderWindow, DuplicateAckIsIdempotent) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 1000);
  EXPECT_EQ(window.on_ack(1, {}, 1100).released, 1u);
  EXPECT_EQ(window.on_ack(1, {}, 1200).released, 0u);
  EXPECT_EQ(window.inflight_bytes(), 0u);
}

TEST(SenderWindow, TakeDueArmsExponentialBackoff) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  // First deadline is at rto_initial.
  EXPECT_EQ(window.next_deadline(), 1000u);
  EXPECT_TRUE(window.take_due(500).empty());

  std::vector<Retransmit> due = window.take_due(1000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempt, 1);
  // Backed off: next deadline is now + 2*rto.
  EXPECT_EQ(window.next_deadline(), 1000 + 2000u);

  due = window.take_due(3000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].attempt, 2);
  EXPECT_EQ(window.next_deadline(), 3000 + 4000u);
}

TEST(SenderWindow, BackoffIsCappedAtRtoMax) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  std::uint64_t now = 0;
  for (int i = 0; i < 20; ++i) {
    now = window.next_deadline();
    ASSERT_FALSE(window.take_due(now).empty());
  }
  EXPECT_LE(window.next_deadline() - now, 64 * 1000u);
}

TEST(SenderWindow, KarnRuleSkipsRetransmittedRttSamples) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  ASSERT_EQ(window.take_due(1000).size(), 1u);  // now retransmitted once
  const AckOutcome out = window.on_ack(1, {}, 1500);
  EXPECT_EQ(out.released, 1u);
  EXPECT_TRUE(out.rtt_samples.empty());  // ambiguous RTT not sampled
  EXPECT_EQ(window.srtt_micros(), 0u);
}

TEST(SenderWindow, AimdBudgetHalvesOnTimeoutAndRegrows) {
  SenderWindow window(small_config());
  EXPECT_EQ(window.budget_bytes(), 1000u);

  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  ASSERT_FALSE(window.take_due(1000).empty());
  EXPECT_EQ(window.budget_bytes(), 500u);  // multiplicative decrease

  // Clean release grows it additively (step = max(1024, max/64) clamped to
  // the configured max).
  (void)window.on_ack(1, {}, 1500);
  EXPECT_GT(window.budget_bytes(), 500u);
  EXPECT_LE(window.budget_bytes(), 1000u);
}

TEST(SenderWindow, BudgetNeverDropsBelowFloor) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 1}}, 0);
  std::uint64_t now = 0;
  for (int i = 0; i < 10; ++i) {
    now = window.next_deadline();
    ASSERT_FALSE(window.take_due(now).empty());
  }
  EXPECT_EQ(window.budget_bytes(), 100u);
}

TEST(SenderWindow, CanSendAdmitsOneBatchWhenIdle) {
  SenderWindow window(small_config());
  // Idle link: even an oversized batch is admitted (never wedged).
  EXPECT_TRUE(window.can_send(100 * 1000));
  window.track(window.next_seq(), wire_of(900), {{7, 1}}, 0);
  EXPECT_TRUE(window.can_send(100));   // 900 + 100 <= 1000
  EXPECT_FALSE(window.can_send(200));  // 900 + 200 > 1000
}

TEST(SenderWindow, DropAppFreesWhollyOwnedEntriesOnly) {
  SenderWindow window(small_config());
  window.track(window.next_seq(), wire_of(10), {{7, 2}}, 0);        // app 7
  window.track(window.next_seq(), wire_of(20), {{7, 1}, {8, 1}}, 0);  // shared
  const auto stub = [](std::uint64_t seq) {
    return Bytes(1, static_cast<std::uint8_t>(seq));
  };
  const SenderWindow::DropOutcome out = window.drop_app(7, stub);
  EXPECT_EQ(out.frames, 3u);
  EXPECT_EQ(out.bytes, 10u);  // only the wholly-owned entry is freed
  // The freed entry stays in flight as a stub, so the receiver's cumulative
  // point can still pass its seq; it counts no in-flight bytes.
  EXPECT_EQ(window.inflight_batches(), 2u);
  EXPECT_EQ(window.inflight_bytes(), 20u);
  const std::vector<Retransmit> due = window.take_due(1000);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].wire, stub(1));
  EXPECT_EQ(due[1].wire, wire_of(20));  // still carries app 8's frame
  EXPECT_EQ(window.on_ack(2, {}, 1500).released, 2u);
}

// ------------------------------------------------------------ ReliableLink

/// One side of a plaintext in-memory link: `sender` transmits, `receiver`
/// runs `on_receive` for every envelope.
struct LinkPair {
  ConnectionPtr sender;
  ConnectionPtr receiver;
};

LinkPair make_link_pair(Connection::EnvelopeHandler on_sender_receive,
                        Connection::EnvelopeHandler on_receive) {
  net::ChannelPair channels = net::make_memory_channel_pair();
  auto link_a = tls::make_plain_link(*channels.a);
  auto link_b = tls::make_plain_link(*channels.b);
  LinkPair out;
  out.sender = std::make_unique<Connection>(
      "receiver", std::move(channels.a), std::move(link_a), true,
      std::move(on_sender_receive));
  out.receiver = std::make_unique<Connection>(
      "sender", std::move(channels.b), std::move(link_b), false,
      std::move(on_receive));
  out.sender->start();
  out.receiver->start();
  return out;
}

LinkInstruments test_instruments(const std::string& name) {
  auto& registry = telemetry::MetricRegistry::global();
  const telemetry::Labels labels{{"site", name}, {"sender", "test"}};
  return LinkInstruments{
      registry.counter("pg_mpi_retransmit_total", "", labels),
      registry.histogram("pg_mpi_ack_rtt_micros", "",
                         telemetry::duration_buckets_micros(), labels),
      registry.gauge("pg_mpi_inflight_bytes", "", labels)};
}

proto::MpiBatch one_frame_batch(std::uint64_t app_id, std::uint32_t src) {
  proto::MpiBatch batch;
  batch.frames.push_back(proto::MpiFrame{app_id, src, 1, {0}, Bytes(16, 1)});
  return batch;
}

template <typename Pred>
bool wait_for(Pred pred) {
  for (int i = 0; i < 5000 && !pred(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return pred();
}

TEST(ReliableLink, ConcurrentSendersTrackEverySeqExactlyOnce) {
  // Node strands fanning into one node link, and rank threads sharing a
  // node agent's link, send concurrently. Two batches sharing a seq would
  // make the receiver drop the second as a duplicate — a lost message.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  std::mutex seen_mutex;
  std::vector<std::uint64_t> seen;
  LinkPair pair = make_link_pair(
      [](const proto::Envelope&, Connection&) {},
      [&](const proto::Envelope& env, Connection&) {
        Result<proto::MpiBatch> batch = proto::MpiBatch::parse(env.payload);
        ASSERT_TRUE(batch.is_ok());
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.push_back(batch.value().seq);
      });
  ReliableLinkConfig config;
  config.rto_initial = 60 * kMicrosPerSecond;  // no retransmission here
  config.rto_max = 60 * kMicrosPerSecond;
  ReliableLink link(config, "concurrent", [&] { return pair.sender.get(); },
                    test_instruments("reliable-link-concurrent"));

  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        proto::MpiBatch batch = one_frame_batch(1, static_cast<std::uint32_t>(t));
        ASSERT_TRUE(link.send(*pair.sender, batch, {{1, 1}}).is_ok());
      }
    });
  }
  for (std::thread& sender : senders) sender.join();

  // Every seq in 1..N tracked once: an entry per seq, none overwritten.
  EXPECT_EQ(link.inflight_batches(), kTotal);
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard<std::mutex> lock(seen_mutex);
    return seen.size() >= kTotal;
  }));
  std::lock_guard<std::mutex> lock(seen_mutex);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) ASSERT_EQ(seen[i], i + 1);
  link.shutdown();
}

TEST(ReliableLink, ClosedAppLeavesZeroFrameStubUntilAcked) {
  // Batches of a closed app are stripped, not forgotten: the receiver sees
  // their seqs as zero-frame batches, so its cumulative point moves on.
  std::atomic<bool> acking{false};
  std::atomic<int> stubs_seen{0};
  std::atomic<ReliableLink*> link_ptr{nullptr};
  BatchCoverage coverage;
  LinkPair pair = make_link_pair(
      [&](const proto::Envelope& env, Connection&) {
        Result<proto::MpiBatchAck> ack = proto::MpiBatchAck::parse(env.payload);
        if (ack.is_ok() && link_ptr.load() != nullptr)
          (void)link_ptr.load()->on_ack(ack.value());
      },
      [&](const proto::Envelope& env, Connection& conn) {
        Result<proto::MpiBatch> batch = proto::MpiBatch::parse(env.payload);
        ASSERT_TRUE(batch.is_ok());
        if (batch.value().frames.empty()) stubs_seen.fetch_add(1);
        if (!acking.load()) return;  // the "lost ack" phase
        const BatchCoverage::Verdict verdict =
            coverage.record(batch.value().origin, batch.value().seq);
        (void)conn.notify(proto::OpCode::kMpiBatchAck, verdict.ack.serialize());
      });
  ReliableLinkConfig config;
  config.rto_initial = 2 * kMicrosPerMilli;
  config.rto_max = 20 * kMicrosPerMilli;
  const LinkInstruments instruments = test_instruments("reliable-link-stub");
  const std::int64_t gauge_before = instruments.inflight_bytes.value();
  ReliableLink link(config, "stub", [&] { return pair.sender.get(); },
                    instruments);
  link_ptr.store(&link);

  for (int i = 0; i < 3; ++i) {
    proto::MpiBatch batch = one_frame_batch(7, 0);
    ASSERT_TRUE(link.send(*pair.sender, batch, {{7, 1}}).is_ok());
  }
  EXPECT_GT(instruments.inflight_bytes.value(), gauge_before);
  EXPECT_EQ(link.drop_app(7), 3u);
  EXPECT_EQ(link.inflight_batches(), 3u);
  EXPECT_EQ(instruments.inflight_bytes.value(), gauge_before);

  ASSERT_TRUE(wait_for([&] { return stubs_seen.load() >= 3; }));
  acking.store(true);
  ASSERT_TRUE(wait_for([&] { return link.inflight_batches() == 0; }));
  link.shutdown();
}

// ----------------------------------------------------------- BatchCoverage

TEST(BatchCoverage, CumulativeAdvancesThroughContiguousSeqs) {
  BatchCoverage coverage;
  EXPECT_EQ(coverage.record("s", 1).ack.cumulative, 1u);
  EXPECT_EQ(coverage.record("s", 2).ack.cumulative, 2u);
  const BatchCoverage::Verdict v = coverage.record("s", 3);
  EXPECT_FALSE(v.duplicate);
  EXPECT_EQ(v.ack.origin, "s");
  EXPECT_EQ(v.ack.cumulative, 3u);
  EXPECT_TRUE(v.ack.selective.empty());  // in-order acks stay minimal
}

TEST(BatchCoverage, GapHoldsCumulativeAndReportsSelective) {
  BatchCoverage coverage;
  (void)coverage.record("s", 1);
  BatchCoverage::Verdict v = coverage.record("s", 3);  // 2 missing
  EXPECT_EQ(v.ack.cumulative, 1u);
  ASSERT_EQ(v.ack.selective.size(), 1u);
  EXPECT_EQ(v.ack.selective[0], 3u);
  // The gap filling advances cumulative over the parked seq.
  v = coverage.record("s", 2);
  EXPECT_FALSE(v.duplicate);
  EXPECT_EQ(v.ack.cumulative, 3u);
  EXPECT_TRUE(v.ack.selective.empty());
}

TEST(BatchCoverage, DuplicateRecordIsIdempotent) {
  BatchCoverage coverage;
  EXPECT_FALSE(coverage.record("s", 1).duplicate);
  const BatchCoverage::Verdict v = coverage.record("s", 1);
  EXPECT_TRUE(v.duplicate);
  EXPECT_EQ(v.ack.cumulative, 1u);  // still acked: heals a lost ack
  EXPECT_TRUE(v.ack.selective.empty());
  (void)coverage.record("s", 5);
  EXPECT_TRUE(coverage.record("s", 5).duplicate);  // above the gap too
}

TEST(BatchCoverage, OriginsAreIndependent) {
  BatchCoverage coverage;
  (void)coverage.record("a", 1);
  EXPECT_EQ(coverage.record("b", 1).ack.cumulative, 1u);
  EXPECT_FALSE(coverage.record("b", 2).duplicate);
  EXPECT_EQ(coverage.record("a", 2).ack.cumulative, 2u);
}

TEST(BatchCoverage, SelectiveListIsBounded) {
  BatchCoverage coverage;
  // Seqs 10..200 with 1..9 missing: the ack carries the arriving seq plus
  // a bounded number of others, while the record keeps every seq.
  BatchCoverage::Verdict v;
  for (std::uint64_t seq = 10; seq <= 200; ++seq)
    v = coverage.record("s", seq);
  EXPECT_EQ(v.ack.cumulative, 0u);
  ASSERT_EQ(v.ack.selective.size(), BatchCoverage::kMaxSelective);
  EXPECT_EQ(v.ack.selective[0], 200u);
  for (std::uint64_t seq = 1; seq <= 9; ++seq) v = coverage.record("s", seq);
  EXPECT_EQ(v.ack.cumulative, 200u);
  EXPECT_TRUE(v.ack.selective.empty());
}

TEST(BatchCoverage, RetransmitLongAfterDeliveryIsStillDuplicate) {
  // A retransmit can arrive after hundreds of newer batches (256 small
  // batches take a few ms, under the RTO floor). It must not be delivered
  // a second time however much newer traffic came in between.
  BatchCoverage coverage;
  (void)coverage.record("s", 1);
  for (std::uint64_t seq = 3; seq <= 1000; ++seq)
    ASSERT_FALSE(coverage.record("s", seq).duplicate);
  EXPECT_TRUE(coverage.record("s", 1).duplicate);
  EXPECT_TRUE(coverage.record("s", 3).duplicate);  // parked above a gap
  EXPECT_FALSE(coverage.record("s", 2).duplicate);
  EXPECT_TRUE(coverage.record("s", 500).duplicate);
}

TEST(BatchCoverage, LateGapFillCoversEverythingParkedAboveIt) {
  // seq 1 arrives, 2 is late, 3..67 arrive, then 2. The record keeps every
  // parked seq, so the late fill moves cumulative to 67, and a later
  // duplicate of 100 gets an ack that covers it.
  BatchCoverage coverage;
  (void)coverage.record("s", 1);
  for (std::uint64_t seq = 3; seq <= 67; ++seq) (void)coverage.record("s", seq);
  EXPECT_EQ(coverage.record("s", 2).ack.cumulative, 67u);
  for (std::uint64_t seq = 68; seq <= 167; ++seq)
    (void)coverage.record("s", seq);
  const BatchCoverage::Verdict v = coverage.record("s", 100);
  EXPECT_TRUE(v.duplicate);
  EXPECT_EQ(v.ack.cumulative, 167u);
}

}  // namespace
}  // namespace pg::proxy
