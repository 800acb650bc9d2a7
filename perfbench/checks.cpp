#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common/rng.hpp"

namespace perfbench {

using pg::ErrorCode;
using pg::error;

namespace {

constexpr std::size_t kSites = 4;
constexpr std::size_t kNodesPerSite = 4;
constexpr std::size_t kPatternSpan = 1 << 20;

Status fail(const std::string& what) {
  return error(ErrorCode::kInternal, what);
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

template <typename T>
void put_le(std::uint8_t* out, T value) {
  std::memcpy(out, &value, sizeof(T));
}

template <typename T>
T get_le(const std::uint8_t* in) {
  T value{};
  std::memcpy(&value, in, sizeof(T));
  return value;
}

}  // namespace

pg::grid::TopologySpec make_topology(std::uint64_t seed) {
  pg::Rng rng(mix64(seed ^ 0x70706f6cULL));
  pg::grid::TopologySpec spec;
  for (std::size_t s = 0; s < kSites; ++s) {
    pg::grid::TopologySpec::Site site;
    site.name = "site" + std::to_string(s);
    for (std::size_t n = 0; n < kNodesPerSite; ++n) {
      pg::monitor::NodeProfile profile;
      profile.name = "node" + std::to_string(n);
      profile.cpu_capacity = 0.5 + 0.25 * static_cast<double>(rng.next_below(7));
      profile.ram_total_mb = 2048 * (1 + rng.next_below(4));
      site.nodes.push_back(profile);
    }
    spec.sites.push_back(std::move(site));
  }
  return spec;
}

Status check_status_rows(const std::vector<pg::proto::StatusReport>& reports,
                         const pg::grid::TopologySpec& topology) {
  if (reports.size() != topology.sites.size()) {
    return fail("status: " + std::to_string(reports.size()) + " sites, want " +
                std::to_string(topology.sites.size()));
  }
  std::set<std::string> seen_sites;
  for (const auto& report : reports) {
    const auto site = std::find_if(
        topology.sites.begin(), topology.sites.end(),
        [&](const auto& s) { return s.name == report.site; });
    if (site == topology.sites.end() || !seen_sites.insert(report.site).second) {
      return fail("status: unexpected or repeated site " + report.site);
    }
    if (report.nodes.size() != site->nodes.size()) {
      return fail("status: " + report.site + " has " +
                  std::to_string(report.nodes.size()) + " nodes");
    }
    std::set<std::string> seen_nodes;
    for (const auto& node : report.nodes) {
      const auto profile = std::find_if(
          site->nodes.begin(), site->nodes.end(),
          [&](const auto& p) { return p.name == node.name; });
      if (profile == site->nodes.end() || !seen_nodes.insert(node.name).second) {
        return fail("status: unexpected or repeated node " + report.site +
                    "/" + node.name);
      }
      if (node.cpu_capacity != profile->cpu_capacity ||
          node.ram_total_mb != profile->ram_total_mb) {
        return fail("status: " + report.site + "/" + node.name +
                    " does not match its profile");
      }
    }
  }
  return Status::ok();
}

std::vector<pg::proto::RankPlacement> predict_round_robin(
    const pg::grid::TopologySpec& topology, std::uint32_t ranks) {
  std::vector<std::pair<std::string, std::string>> nodes;
  for (const auto& site : topology.sites) {
    for (const auto& node : site.nodes) nodes.emplace_back(site.name, node.name);
  }
  std::sort(nodes.begin(), nodes.end());
  std::vector<pg::proto::RankPlacement> out;
  for (std::uint32_t rank = 0; rank < ranks && !nodes.empty(); ++rank) {
    const auto& [site, node] = nodes[rank % nodes.size()];
    out.push_back(pg::proto::RankPlacement{rank, site, node});
  }
  return out;
}

Status check_placements(const std::vector<pg::proto::RankPlacement>& got,
                        const pg::grid::TopologySpec& topology,
                        std::uint32_t ranks) {
  const auto want = predict_round_robin(topology, ranks);
  std::map<std::uint32_t, const pg::proto::RankPlacement*> by_rank;
  for (const auto& placement : got) {
    if (!by_rank.emplace(placement.rank, &placement).second) {
      return fail("placement: rank " + std::to_string(placement.rank) +
                  " placed twice");
    }
  }
  if (by_rank.size() != want.size()) {
    return fail("placement: " + std::to_string(by_rank.size()) +
                " ranks placed, want " + std::to_string(want.size()));
  }
  for (const auto& expected : want) {
    const auto it = by_rank.find(expected.rank);
    if (it == by_rank.end()) {
      return fail("placement: rank " + std::to_string(expected.rank) +
                  " missing");
    }
    if (!(*it->second == expected)) {
      return fail("placement: rank " + std::to_string(expected.rank) + " on " +
                  it->second->site + "/" + it->second->node + ", want " +
                  expected.site + "/" + expected.node);
    }
  }
  return Status::ok();
}

Status check_allreduce_sum(double sum, std::uint32_t ranks) {
  const double want = static_cast<double>(ranks) * (ranks - 1) / 2.0;
  if (sum != want) {
    return fail("allreduce: got " + std::to_string(sum) + ", want " +
                std::to_string(want));
  }
  return Status::ok();
}

Status check_traffic(const pg::grid::TrafficReport& before,
                     const pg::grid::TrafficReport& after,
                     std::uint64_t payload_sent) {
  if (after.intra_site.crypto_bytes != 0) {
    return fail("traffic: intra-site links encrypted " +
                std::to_string(after.intra_site.crypto_bytes) + " bytes");
  }
  const std::uint64_t inter =
      after.inter_site.payload_bytes - before.inter_site.payload_bytes;
  if (inter < payload_sent) {
    return fail("traffic: inter-site payload " + std::to_string(inter) +
                " < benchmark payload " + std::to_string(payload_sent));
  }
  return Status::ok();
}

PatternSource::PatternSource(std::uint64_t seed, std::size_t max_message_bytes)
    : pattern_(pg::Rng(mix64(seed ^ 0x7061747465726eULL))
                   .next_bytes(kPatternSpan + max_message_bytes)) {}

BytesView PatternSource::slice(std::uint64_t seq, std::size_t len) const {
  const std::size_t offset = mix64(seq) % (pattern_.size() - len + 1);
  return BytesView(pattern_.data() + offset, len);
}

void encode_stream_message(const StreamHeader& header,
                           const PatternSource& pattern, std::size_t bytes,
                           Bytes& out) {
  out.resize(std::max(bytes, kStreamHeaderBytes));
  put_le(out.data(), header.seq);
  put_le(out.data() + 8, header.window);
  out[16] = header.flags;
  put_le(out.data() + 17, header.stamp_ns);
  const std::size_t body = out.size() - kStreamHeaderBytes;
  if (body > 0) {
    const BytesView src = pattern.slice(header.seq, body);
    std::memcpy(out.data() + kStreamHeaderBytes, src.data(), body);
  }
}

Status StreamChecker::accept(BytesView message, StreamHeader& header) {
  if (message.size() < kStreamHeaderBytes) {
    return fail("stream: short message of " + std::to_string(message.size()) +
                " bytes");
  }
  header.seq = get_le<std::uint64_t>(message.data());
  header.window = get_le<std::uint64_t>(message.data() + 8);
  header.flags = message[16];
  header.stamp_ns = get_le<std::int64_t>(message.data() + 17);
  if (header.flags & kFlagEnd) return Status::ok();
  if (message.size() != message_bytes_) {
    return fail("stream: message of " + std::to_string(message.size()) +
                " bytes, want " + std::to_string(message_bytes_));
  }
  if (header.seq != next_seq_) {
    return fail("stream: got seq " + std::to_string(header.seq) + ", want " +
                std::to_string(next_seq_) +
                (header.seq < next_seq_ ? " (duplicate)" : " (dropped)"));
  }
  const std::size_t body = message.size() - kStreamHeaderBytes;
  const BytesView want = pattern_.slice(header.seq, body);
  if (std::memcmp(message.data() + kStreamHeaderBytes, want.data(), body) != 0) {
    return fail("stream: payload of seq " + std::to_string(header.seq) +
                " corrupted");
  }
  ++next_seq_;
  return Status::ok();
}

Status StreamChecker::finish(std::uint64_t sent) const {
  if (next_seq_ != sent) {
    return fail("stream: " + std::to_string(next_seq_) + " of " +
                std::to_string(sent) + " messages arrived");
  }
  return Status::ok();
}

}  // namespace perfbench
