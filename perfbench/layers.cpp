#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "auth/password.hpp"
#include "auth/ticket.hpp"
#include "common/rng.hpp"
#include "crypto/cert.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "monitor/site_collector.hpp"
#include "monitor/stats_source.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/runtime.hpp"
#include "net/memory_channel.hpp"
#include "proto/envelope.hpp"
#include "proto/messages.hpp"
#include "sched/scheduler.hpp"
#include "tls/gssl.hpp"
#include "tls/record.hpp"
#include "tls/resumption.hpp"

namespace perfbench {

namespace {

using namespace pg;
using SteadyClock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Keeps the optimizer from discarding a probe's result.
volatile std::uint64_t g_sink = 0;

/// Median over `batches` of the per-call time (ns) of `calls` calls of `fn`,
/// after one unmeasured warm-up batch. Records one span per probe.
template <typename Fn>
double per_call_ns(const char* name, SpanSink on_span, int batches, int calls,
                   Fn&& fn) {
  for (int i = 0; i < calls; ++i) fn();
  std::vector<double> samples;
  const std::int64_t start = now_ns();
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) fn();
    samples.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  on_span(name, start, now_ns());
  return median(std::move(samples));
}

struct GsslPair {
  crypto::CertificateAuthority ca;
  tls::GsslConfig client;
  tls::GsslConfig server;
  ManualClock clock{1000};

  explicit GsslPair(Rng& rng) : ca("perfbench-ca", 768, rng) {
    const crypto::RsaKeyPair a = crypto::rsa_generate(768, rng);
    const crypto::RsaKeyPair b = crypto::rsa_generate(768, rng);
    client = {{ca.issue("proxy.a", a.pub, 0, 1'000'000'000), a.priv},
              ca.name(), ca.public_key(), "proxy.b"};
    server = {{ca.issue("proxy.b", b.pub, 0, 1'000'000'000), b.priv},
              ca.name(), ca.public_key(), "proxy.a"};
  }

  /// One handshake over a fresh memory channel; false on failure.
  bool connect(Rng& client_rng, Rng& server_rng, bool want_resumed) {
    net::ChannelPair pair = net::make_memory_channel_pair();
    auto accepted = std::async(std::launch::async, [&] {
      return tls::gssl_server_handshake(*pair.b, server, clock, server_rng);
    });
    auto dialed = tls::gssl_client_handshake(*pair.a, client, clock, client_rng);
    if (!dialed.is_ok()) pair.a->close();  // unblocks the accepting side
    auto done = accepted.get();
    return dialed.is_ok() && done.is_ok() &&
           (!want_resumed || dialed.value()->stats().resumed);
  }
};

}  // namespace

std::map<std::string, double> probe_layers(
    std::uint64_t seed, const grid::TopologySpec& topology, SpanSink on_span) {
  std::map<std::string, double> out;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  // ---- crypto
  {
    const Bytes key = rng.next_bytes(32);
    const Bytes nonce = rng.next_bytes(12);
    Bytes buffer = rng.next_bytes(64 * 1024);
    out["crypto.chacha20_ns_per_kib"] =
        per_call_ns("layer.crypto.chacha20", on_span, 15, 40, [&] {
          crypto::ChaCha20 cipher(key, nonce);
          cipher.process(buffer.data(), buffer.size());
          g_sink = g_sink + buffer[0];
        }) / 64.0;
    crypto::HmacSha256 mac(key);
    std::uint8_t digest[crypto::kSha256DigestSize];
    out["crypto.hmac_ns_per_kib"] =
        per_call_ns("layer.crypto.hmac", on_span, 15, 40, [&] {
          mac.reset();
          mac.update(buffer);
          mac.finish_into(digest);
          g_sink = g_sink + digest[0];
        }) / 64.0;
    const crypto::RsaKeyPair keys = crypto::rsa_generate(768, rng);
    const Bytes message = rng.next_bytes(32);
    out["crypto.rsa_sign_us"] =
        per_call_ns("layer.crypto.rsa_sign", on_span, 9, 20, [&] {
          g_sink = g_sink + crypto::rsa_sign(keys.priv, message)[0];
        }) / 1000.0;
  }

  // ---- tls records and handshakes
  {
    const Bytes key = rng.next_bytes(32), mac = rng.next_bytes(32),
                iv = rng.next_bytes(12);
    const auto seal_open = [&](std::size_t size, int batches, int calls) {
      tls::internal::RecordCipher tx(key, mac, iv), rx(key, mac, iv);
      const Bytes payload = rng.next_bytes(size);
      Bytes wire, record;
      bool ok = true;
      const double ns = per_call_ns(
          size < 1024 ? "layer.tls.record_small" : "layer.tls.record_bulk",
          on_span, batches, calls, [&] {
            ok = ok && tx.seal_record(tls::internal::RecordType::kData, payload,
                                      wire).is_ok();
            record.assign(wire.begin() + tls::internal::kRecordHeaderSize,
                          wire.end());
            ok = ok && rx.open_in_place(tls::internal::RecordType::kData,
                                        record).is_ok();
          });
      return ok ? ns : -1.0;
    };
    out["tls.record_256b_ns"] = seal_open(256, 15, 2000);
    out["tls.record_64kib_us"] = seal_open(64 * 1024, 15, 20) / 1000.0;

    GsslPair pair(rng);
    Rng client_rng(seed + 11), server_rng(seed + 12);
    bool ok = true;
    out["tls.handshake_full_us"] =
        per_call_ns("layer.tls.handshake_full", on_span, 9, 6, [&] {
          ok = ok && pair.connect(client_rng, server_rng, false);
        }) / 1000.0;
    tls::ResumptionKeeper keeper(rng.next_bytes(32), 3600 * kMicrosPerSecond);
    tls::ResumptionStore store;
    pair.server.resumption = &keeper;
    pair.client.resumption_store = &store;
    ok = ok && pair.connect(client_rng, server_rng, false);  // primes a ticket
    out["tls.handshake_resumed_us"] =
        per_call_ns("layer.tls.handshake_resumed", on_span, 9, 20, [&] {
          ok = ok && pair.connect(client_rng, server_rng, true);
        }) / 1000.0;
    if (!ok) out["tls.handshake_full_us"] = out["tls.handshake_resumed_us"] = -1;
  }

  // ---- net: memory-channel ping-pong across two threads
  {
    net::ChannelPair pair = net::make_memory_channel_pair();
    std::thread echo([&] {
      std::uint8_t buf[64];
      while (pair.b->read_exact(buf, sizeof buf).is_ok()) {
        if (!pair.b->write(BytesView(buf, sizeof buf)).is_ok()) break;
      }
    });
    std::uint8_t buf[64] = {};
    bool ok = true;
    out["net.channel_rtt_us"] =
        per_call_ns("layer.net.channel_rtt", on_span, 15, 500, [&] {
          ok = ok && pair.a->write(BytesView(buf, sizeof buf)).is_ok() &&
               pair.a->read_exact(buf, sizeof buf).is_ok();
        }) / 1000.0;
    pair.a->close();
    echo.join();
    if (!ok) out["net.channel_rtt_us"] = -1;
  }

  // ---- proto: envelope the size of a status report; batch codec
  {
    monitor::SiteCollector collector("site0");
    for (const auto& node : topology.sites[0].nodes) {
      collector.add_node(
          std::make_unique<monitor::SyntheticStatsSource>(node, seed));
    }
    proto::Envelope envelope;
    envelope.op = proto::OpCode::kStatusReport;
    envelope.request_id = 7;
    envelope.payload = collector.collect(1).serialize();
    Bytes wire;
    out["proto.envelope_codec_ns"] =
        per_call_ns("layer.proto.envelope", on_span, 15, 5000, [&] {
          envelope.serialize_into(wire);
          auto parsed = proto::Envelope::deserialize(wire);
          g_sink = g_sink + parsed.is_ok();
        });

    proto::MpiBatch batch;
    batch.origin = "site0";
    batch.seq = 1;
    constexpr int kFrames = 32;
    for (int i = 0; i < kFrames; ++i) {
      batch.frames.push_back(proto::MpiFrame{1, 0, 1, {4}, rng.next_bytes(256)});
    }
    out["proto.mpi_batch_codec_ns_per_frame"] =
        per_call_ns("layer.proto.mpi_batch", on_span, 15, 300, [&] {
          auto parsed = proto::MpiBatch::parse(batch.serialize());
          g_sink = g_sink + parsed.is_ok();
        }) / kFrames;

    out["monitor.collect_us"] =
        per_call_ns("layer.monitor.collect", on_span, 15, 2000, [&] {
          g_sink = g_sink + collector.collect(2).nodes.size();
        }) / 1000.0;
  }

  // ---- auth
  {
    auth::PasswordStore passwords;
    passwords.set_password("alice", "correct horse", rng);
    out["auth.password_verify_us"] =
        per_call_ns("layer.auth.password_verify", on_span, 9, 10, [&] {
          g_sink = g_sink + passwords.verify("alice", "correct horse").is_ok();
        }) / 1000.0;
    auth::TicketService tickets(rng.next_bytes(32), 3600 * kMicrosPerSecond);
    const Bytes token =
        tickets.issue_sealed("alice", {"mpi.run", "status.query"}, 1);
    out["auth.ticket_authorize_us"] =
        per_call_ns("layer.auth.ticket_authorize", on_span, 15, 2000, [&] {
          g_sink = g_sink + tickets.authorize(token, "status.query", 2).is_ok();
        }) / 1000.0;
  }

  // ---- sched: 16 ranks over the 16 nodes of the topology
  {
    std::vector<monitor::GridNode> nodes;
    for (const auto& site : topology.sites) {
      for (const auto& node : site.nodes) {
        proto::NodeStatus status;
        status.name = node.name;
        status.cpu_capacity = node.cpu_capacity;
        status.ram_total_mb = status.ram_free_mb = node.ram_total_mb;
        nodes.push_back(monitor::GridNode{site.name, status});
      }
    }
    auto scheduler = sched::make_round_robin_scheduler();
    out["sched.assign_us"] =
        per_call_ns("layer.sched.assign", on_span, 15, 2000, [&] {
          g_sink = g_sink + scheduler->assign(nodes, 16, {}).is_ok();
        }) / 1000.0;
  }

  // ---- mpi: mailbox hand-off between two threads; local allreduce
  {
    mpi::Mailbox to_echo, to_main;
    std::thread echo([&] {
      for (;;) {
        auto message = to_echo.recv(mpi::kAnySource, mpi::kAnyTag);
        if (!message.is_ok() || !to_main.deliver(message.take()).is_ok()) break;
      }
    });
    bool ok = true;
    out["mpi.mailbox_handoff_us"] =
        per_call_ns("layer.mpi.mailbox", on_span, 15, 500, [&] {
          ok = ok && to_echo.deliver(mpi::MpiMessage{0, 1, 1, Bytes(64)}).is_ok() &&
               to_main.recv(mpi::kAnySource, mpi::kAnyTag).is_ok();
        }) / 2000.0;  // one round trip is two hand-offs
    to_echo.close();
    echo.join();
    if (!ok) out["mpi.mailbox_handoff_us"] = -1;

    const mpi::AppFn allreduce = [](mpi::Comm& comm) -> Status {
      auto sum = comm.allreduce(comm.rank(), mpi::ReduceOp::kSum);
      if (!sum.is_ok()) return sum.status();
      const double want = comm.size() * (comm.size() - 1) / 2.0;
      return sum.value() == want ? Status::ok()
                                 : error(ErrorCode::kInternal, "bad sum");
    };
    out["mpi.local_allreduce_us"] =
        per_call_ns("layer.mpi.local_allreduce", on_span, 9, 10, [&] {
          ok = ok && mpi::run_local(allreduce, 16).status.is_ok();
        }) / 1000.0;
    if (!ok) out["mpi.local_allreduce_us"] = -1;
  }
  return out;
}

double probe_ping_rtt_us(grid::Grid& grid, SpanSink on_span) {
  auto& site0 = grid.proxy("site0");
  bool ok = true;
  const double ns = per_call_ns("layer.proxy.ping", on_span, 9, 40, [&] {
    ok = ok && site0.ping_peer("site1").is_ok();
  });
  return ok ? ns / 1000.0 : -1.0;
}

double probe_ref_loop_ms() {
  std::vector<double> samples;
  for (int run = 0; run < 7; ++run) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x243f6a8885a308d3ULL + static_cast<std::uint64_t>(run);
    for (int i = 0; i < (1 << 22); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545f4914f6cdd1dULL;
    }
    g_sink = g_sink + x;
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  return median(std::move(samples));
}

}  // namespace perfbench
