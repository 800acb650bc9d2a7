// Correctness checks of the end-to-end benchmark. Each check compares what
// the program returned with a value computed here, apart from the program:
// the topology the benchmark built, its own round-robin placement, the
// closed-form allreduce sum, and a seeded payload pattern the receiver
// recomputes. perfbench_selftest shows that every check can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "grid/grid.hpp"
#include "proto/messages.hpp"

namespace perfbench {

using pg::Bytes;
using pg::BytesView;
using pg::Status;

/// The grid every workload runs on: 4 sites x 4 nodes, node capacities and
/// memory drawn from `seed`.
pg::grid::TopologySpec make_topology(std::uint64_t seed);

/// Status rows must name exactly the built sites and nodes, and each node's
/// capacity must equal the profile it was given.
Status check_status_rows(const std::vector<pg::proto::StatusReport>& reports,
                         const pg::grid::TopologySpec& topology);

/// Rank i on the i-th node (mod node count) of the topology in (site, node)
/// name order — the benchmark's own round-robin, not the program's.
std::vector<pg::proto::RankPlacement> predict_round_robin(
    const pg::grid::TopologySpec& topology, std::uint32_t ranks);

/// Every rank placed exactly once, on the predicted node.
Status check_placements(const std::vector<pg::proto::RankPlacement>& got,
                        const pg::grid::TopologySpec& topology,
                        std::uint32_t ranks);

/// Allreduce(sum) of the rank ids 0..n-1 must be n(n-1)/2.
Status check_allreduce_sum(double sum, std::uint32_t ranks);

/// Proxy tunneling keeps intra-site links plaintext, and inter-site links
/// carry at least the payload the benchmark handed to the program.
Status check_traffic(const pg::grid::TrafficReport& before,
                     const pg::grid::TrafficReport& after,
                     std::uint64_t payload_sent);

// ---- MPI stream messages -------------------------------------------------

/// Message layout: [seq u64][window u64][flags u8][stamp_ns i64][pattern].
struct StreamHeader {
  std::uint64_t seq = 0;
  std::uint64_t window = 0;
  std::uint8_t flags = 0;
  std::int64_t stamp_ns = 0;
};
constexpr std::size_t kStreamHeaderBytes = 25;
constexpr std::uint8_t kFlagMeasured = 1;   // sent in the measured phase
constexpr std::uint8_t kFlagLastInWindow = 2;
constexpr std::uint8_t kFlagEnd = 4;        // terminator, no pattern check

/// Seeded byte pattern; message `seq` carries the slice at an offset that
/// depends on seq, so a reordered, duplicated or corrupted message differs.
class PatternSource {
 public:
  PatternSource(std::uint64_t seed, std::size_t max_message_bytes);
  BytesView slice(std::uint64_t seq, std::size_t len) const;

 private:
  Bytes pattern_;
};

/// Writes a whole message of `bytes` (at least the header) into `out`.
void encode_stream_message(const StreamHeader& header,
                           const PatternSource& pattern, std::size_t bytes,
                           Bytes& out);

/// Receiver side: every message must arrive exactly once, in order, with
/// the pattern the sender was given.
class StreamChecker {
 public:
  StreamChecker(const PatternSource& pattern, std::size_t message_bytes)
      : pattern_(pattern), message_bytes_(message_bytes) {}

  /// Validates one message; on success fills `header`.
  Status accept(BytesView message, StreamHeader& header);
  /// The sender's count of data messages must equal what arrived.
  Status finish(std::uint64_t sent) const;
  std::uint64_t received() const { return next_seq_; }

 private:
  const PatternSource& pattern_;
  std::size_t message_bytes_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace perfbench
