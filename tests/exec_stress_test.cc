// Concurrency stress for the parallel update engine — the workloads the CI
// TSan job runs under `ctest -L exec`. Larger batches, more workers, and a
// high-contention variant shake out latch ordering and happens-before bugs
// that the small deterministic tests cannot reach.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "server/exec/txn_processor.h"

namespace bcc {
namespace {

struct StressCase {
  UpdateScheme scheme;
  uint32_t num_objects;  // fewer objects = more contention
  const char* name;
};

// Without this gtest prints the raw object bytes, which include the address
// of `name` and the struct's padding, and the discovered ctest names embed
// that printout.
void PrintTo(const StressCase& sc, std::ostream* os) { *os << sc.name; }

class ExecStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(ExecStressTest, ConcurrentBatchesStaySerializable) {
  const StressCase& sc = GetParam();
  constexpr uint32_t kWorkers = 4;
  constexpr uint32_t kBatches = 4;
  constexpr uint32_t kTxnsPerBatch = 32;

  Rng rng(0xbccull * sc.num_objects + static_cast<uint64_t>(sc.scheme));
  TxnProcessor proc(sc.num_objects, sc.scheme, kWorkers);
  std::vector<CommittedServerTxn> all;
  TxnId next_id = 1;
  for (uint32_t batch = 0; batch < kBatches; ++batch) {
    std::vector<ServerTxn> txns;
    for (uint32_t i = 0; i < kTxnsPerBatch; ++i) {
      ServerTxn t;
      t.id = next_id++;
      t.read_set =
          rng.SampleWithoutReplacement(sc.num_objects, static_cast<uint32_t>(rng.NextInt(0, 3)));
      t.write_set =
          rng.SampleWithoutReplacement(sc.num_objects, static_cast<uint32_t>(rng.NextInt(0, 2)));
      txns.push_back(std::move(t));
    }
    const auto committed = proc.ExecuteBatch(txns);
    ASSERT_EQ(committed.size(), txns.size());
    all.insert(all.end(), committed.begin(), committed.end());
  }

  const Status verdict = VerifySerializable(sc.num_objects, all);
  ASSERT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(proc.stats().committed, kBatches * kTxnsPerBatch);
  EXPECT_EQ(proc.stats().batches, kBatches);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByContention, ExecStressTest,
    ::testing::Values(StressCase{UpdateScheme::kTwoPhaseLocking, 64, "TwoPhaseLockingLow"},
                      StressCase{UpdateScheme::kTwoPhaseLocking, 4, "TwoPhaseLockingHigh"},
                      StressCase{UpdateScheme::kOcc, 64, "OccLow"},
                      StressCase{UpdateScheme::kOcc, 4, "OccHigh"},
                      StressCase{UpdateScheme::kMvcc, 64, "MvccLow"},
                      StressCase{UpdateScheme::kMvcc, 4, "MvccHigh"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace bcc
