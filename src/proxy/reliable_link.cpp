#include "proxy/reliable_link.hpp"

#include <utility>

#include "net/reactor.hpp"

namespace pg::proxy {

namespace {
SenderWindowConfig window_config(const ReliableLinkConfig& config) {
  SenderWindowConfig wc;
  wc.rto_initial_micros = static_cast<std::uint64_t>(config.rto_initial);
  wc.rto_max_micros = static_cast<std::uint64_t>(config.rto_max);
  wc.budget_max_bytes = config.inflight_max_bytes;
  return wc;
}

std::uint64_t now_micros() {
  return static_cast<std::uint64_t>(steady_micros());
}
}  // namespace

// ------------------------------------------------------------ ReliableLink

ReliableLink::ReliableLink(const ReliableLinkConfig& config,
                           std::string origin,
                           std::function<Connection*()> resolve,
                           LinkInstruments instruments)
    : origin_(std::move(origin)),
      resolve_(std::move(resolve)),
      instruments_(instruments),
      window_(window_config(config)) {}

ReliableLink::~ReliableLink() { shutdown(); }

Status ReliableLink::send(Connection& conn, proto::MpiBatch& batch,
                          std::map<std::uint64_t, std::size_t> frames_per_app) {
  Bytes wire;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch.origin = origin_;
    batch.seq = window_.next_seq();
    wire = batch.serialize();
    if (!stopped_) {  // a shut-down link never retransmits: nothing to track
      window_.track(batch.seq, wire, std::move(frames_per_app), now_micros());
      instruments_.inflight_bytes.add(static_cast<std::int64_t>(wire.size()));
      arm_locked();
    }
  }
  return conn.notify(proto::OpCode::kMpiBatch, wire);
}

std::size_t ReliableLink::on_ack(const proto::MpiBatchAck& ack) {
  // Only acks for this link's own stream move the window; anything else (a
  // crafted or replayed origin the receiver dutifully acked) is noise.
  if (ack.origin != origin_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  const AckOutcome out =
      window_.on_ack(ack.cumulative, ack.selective, now_micros());
  instruments_.inflight_bytes.add(
      -static_cast<std::int64_t>(out.released_bytes));
  for (const std::uint64_t rtt : out.rtt_samples)
    instruments_.ack_rtt.observe(static_cast<double>(rtt));
  return out.released;
}

std::size_t ReliableLink::drop_app(std::uint64_t app_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const SenderWindow::DropOutcome out =
      window_.drop_app(app_id, [this](std::uint64_t seq) {
        proto::MpiBatch stub;
        stub.origin = origin_;
        stub.seq = seq;
        return stub.serialize();
      });
  instruments_.inflight_bytes.add(-static_cast<std::int64_t>(out.bytes));
  return out.frames;
}

bool ReliableLink::can_send() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.can_send(1);
}

std::size_t ReliableLink::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.budget_bytes();
}

std::size_t ReliableLink::inflight_batches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_.inflight_batches();
}

void ReliableLink::shutdown() {
  std::uint64_t timer = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    timer = std::exchange(timer_, 0);
    instruments_.inflight_bytes.add(
        -static_cast<std::int64_t>(window_.inflight_bytes()));
  }
  // Waits out a fire() already running; it sees stopped_ and won't re-arm.
  if (timer != 0) net::Reactor::global().cancel_timer(timer);
}

void ReliableLink::arm_locked() {
  if (timer_ != 0 || stopped_) return;
  const std::uint64_t next = window_.next_deadline();
  if (next == 0) return;  // nothing in flight, no timer needed
  const std::uint64_t now = now_micros();
  const TimeMicros delay =
      next > now ? static_cast<TimeMicros>(next - now) : TimeMicros{1};
  timer_ = net::Reactor::global().schedule_timer(delay, [this] { fire(); });
}

void ReliableLink::fire() {
  std::vector<Retransmit> due;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    due = window_.take_due(now_micros());
  }
  // The connection is resolved now, so a retransmission after a reconnect
  // lands on the fresh link. A dead link keeps the entries armed; backoff
  // paces the retries until the link revives or the apps close.
  if (!due.empty()) {
    Connection* conn = resolve_();
    if (conn != nullptr && conn->alive()) {
      for (const Retransmit& r : due) {
        instruments_.retransmits.increment();
        (void)conn->notify(proto::OpCode::kMpiBatch, r.wire);
      }
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) return;
  timer_ = 0;
  arm_locked();
}

// ----------------------------------------------------------- BatchCoverage

BatchCoverage::Verdict BatchCoverage::record(const std::string& origin,
                                             std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record& r = records_[origin];
  Verdict v;
  v.duplicate = seq <= r.cumulative || r.above.count(seq) != 0;
  if (!v.duplicate) {
    if (seq == r.cumulative + 1) {
      ++r.cumulative;
      // The gap this seq filled may release seqs parked above it.
      auto it = r.above.begin();
      while (it != r.above.end() && *it == r.cumulative + 1) {
        ++r.cumulative;
        it = r.above.erase(it);
      }
    } else {
      r.above.insert(seq);
    }
  }
  v.ack.origin = origin;
  v.ack.cumulative = r.cumulative;
  if (seq > r.cumulative) v.ack.selective.push_back(seq);
  for (auto it = r.above.rbegin();
       it != r.above.rend() && v.ack.selective.size() < kMaxSelective; ++it) {
    if (*it != seq) v.ack.selective.push_back(*it);
  }
  return v;
}

}  // namespace pg::proxy
