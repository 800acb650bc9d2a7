// Shows that every correctness check of the benchmark can fail: each check
// accepts the good case and rejects a corrupted payload, a dropped message,
// a duplicated message, a duplicated or misplaced rank, a wrong allreduce
// sum, wrong status rows and encrypted intra-site traffic.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>

#include "checks.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool accepted, bool want_accepted, const std::string& what) {
  if (accepted != want_accepted) {
    ++g_failures;
    std::printf("FAIL  %s: %s\n", what.c_str(),
                accepted ? "accepted, want rejected" : "rejected, want accepted");
  } else {
    std::printf("ok    %s\n", what.c_str());
  }
}

/// Feeds `seqs` (message sequence numbers, in arrival order) through a
/// checker; `corrupt_at` flips one payload byte of that arrival.
bool stream_accepted(const std::vector<std::uint64_t>& seqs,
                     std::uint64_t sent, std::size_t corrupt_at = SIZE_MAX) {
  constexpr std::size_t kBytes = 256;
  const PatternSource pattern(7, kBytes);
  StreamChecker checker(pattern, kBytes);
  Bytes message;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    encode_stream_message(StreamHeader{seqs[i], 0, kFlagMeasured, 0}, pattern,
                          kBytes, message);
    if (i == corrupt_at) message[kBytes - 1] ^= 0x01;
    StreamHeader header;
    if (!checker.accept(message, header).is_ok()) return false;
  }
  return checker.finish(sent).is_ok();
}

std::vector<pg::proto::StatusReport> rows_of(const pg::grid::TopologySpec& t) {
  std::vector<pg::proto::StatusReport> reports;
  for (const auto& site : t.sites) {
    pg::proto::StatusReport report;
    report.site = site.name;
    for (const auto& node : site.nodes) {
      pg::proto::NodeStatus status;
      status.name = node.name;
      status.cpu_capacity = node.cpu_capacity;
      status.ram_total_mb = node.ram_total_mb;
      report.nodes.push_back(status);
    }
    reports.push_back(report);
  }
  return reports;
}

}  // namespace

int main() {
  // ---- MPI stream
  expect(stream_accepted({0, 1, 2, 3}, 4), true, "stream: in order, complete");
  expect(stream_accepted({0, 1, 2, 3}, 4, 2), false, "stream: corrupted payload");
  expect(stream_accepted({0, 1, 3}, 4), false, "stream: dropped message");
  expect(stream_accepted({0, 1, 2}, 4), false, "stream: last message dropped");
  expect(stream_accepted({0, 1, 1, 2, 3}, 4), false, "stream: duplicated message");
  expect(stream_accepted({0, 2, 1, 3}, 4), false, "stream: reordered messages");

  // ---- launch placement and allreduce
  const auto topology = make_topology(3);
  const auto plan = predict_round_robin(topology, 16);
  expect(check_placements(plan, topology, 16).is_ok(), true, "placement: predicted");
  auto duplicated = plan;
  duplicated[5].rank = 4;
  expect(check_placements(duplicated, topology, 16).is_ok(), false,
         "placement: duplicated rank");
  auto missing = plan;
  missing.pop_back();
  expect(check_placements(missing, topology, 16).is_ok(), false,
         "placement: missing rank");
  auto moved = plan;
  std::swap(moved[0].node, moved[1].node);
  expect(check_placements(moved, topology, 16).is_ok(), false,
         "placement: rank on the wrong node");
  expect(check_allreduce_sum(120.0, 16).is_ok(), true, "allreduce: n(n-1)/2");
  expect(check_allreduce_sum(119.0, 16).is_ok(), false, "allreduce: wrong sum");

  // ---- control status rows
  const auto rows = rows_of(topology);
  expect(check_status_rows(rows, topology).is_ok(), true, "status: matches topology");
  auto wrong_capacity = rows;
  wrong_capacity[2].nodes[1].cpu_capacity += 0.25;
  expect(check_status_rows(wrong_capacity, topology).is_ok(), false,
         "status: wrong node capacity");
  auto missing_site = rows;
  missing_site.pop_back();
  expect(check_status_rows(missing_site, topology).is_ok(), false,
         "status: missing site");
  auto repeated_node = rows;
  repeated_node[0].nodes[1] = repeated_node[0].nodes[0];
  expect(check_status_rows(repeated_node, topology).is_ok(), false,
         "status: repeated node");

  // ---- traffic accounting
  pg::grid::TrafficReport before, after;
  after.inter_site.payload_bytes = 1000;
  expect(check_traffic(before, after, 1000).is_ok(), true, "traffic: consistent");
  expect(check_traffic(before, after, 1001).is_ok(), false,
         "traffic: less inter-site payload than sent");
  after.intra_site.crypto_bytes = 1;
  expect(check_traffic(before, after, 1000).is_ok(), false,
         "traffic: intra-site bytes encrypted");

  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
