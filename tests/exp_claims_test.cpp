#include "exp/claims.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace elephant::exp {
namespace {

TEST(Claims, SeedVoteMarksAndDeclaredClaims) {
  const Claim claim{"test.claim", "a claim", {}, nullptr};
  const ClaimRow all = vote(claim, {{true, "a"}, {true, "b"}, {true, "c"}});
  EXPECT_EQ(all.mark(), "✅");
  EXPECT_EQ(all.values, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(vote(claim, {{true, "a"}, {false, "b"}, {true, "c"}}).mark(), "🟡 2 of 3");
  EXPECT_EQ(vote(claim, {{false, "a"}, {false, "b"}, {false, "c"}}).mark(), "❌");

  std::set<std::string> ids;
  for (const Claim& c : paper_claims()) {
    EXPECT_TRUE(ids.insert(c.id).second) << "claim id " << c.id << " declared twice";
    EXPECT_FALSE(c.cells.empty()) << c.id << " reads no cells";
  }
}

// Every predicate runs on stand-in results for exactly its own cells (equal
// senders, a full link) and formats what it read; an index past its cells
// is caught by the sanitizer builds.
TEST(Claims, EveryPredicateRunsOnItsOwnCells) {
  for (const Claim& c : paper_claims()) {
    std::vector<AveragedResult> results(c.cells.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      AveragedResult& r = results[i];
      r.config = c.cells[i];
      r.sender_bps[0] = r.sender_bps[1] = r.config.bottleneck_bps / 2;
      r.utilization = 1;
      if (!r.config.workload.is_paper_default()) {
        r.classes = {{.name = "elephants"}, {.name = "mice", .flows = 40, .completed = 40}};
      }
    }
    EXPECT_FALSE(c.check(results).values.empty()) << c.id;
  }
}

}  // namespace
}  // namespace elephant::exp
