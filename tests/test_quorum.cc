// QuorumTally tests (ctest label: quorum).
//
// The tally is the one decision table behind both the single-key GET and
// the batched MultiGet, so it is checked exhaustively: for every
// replication mode and every target count from the quorum size up to R
// (callers never tally fewer targets than a quorum), every vote sequence over
// {Unavailable, FailedPrecondition, absent, absent+overflow, v1, v2} is fed
// to a tally and compared, vote by vote, with a count-based oracle written
// here — verdict, preferred responder, winning vote, second member (the
// hedge target), overflow bit and config mismatch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cliquemap/quorum.h"

namespace cm::cliquemap {
namespace {

enum class Kind {
  kUnavailable,
  kMismatch,
  kAbsent,
  kAbsentOverflow,
  kV1,
  kV2,
};
constexpr Kind kKinds[] = {Kind::kUnavailable, Kind::kMismatch,
                           Kind::kAbsent,      Kind::kAbsentOverflow,
                           Kind::kV1,          Kind::kV2};

bool IsFailure(Kind k) {
  return k == Kind::kUnavailable || k == Kind::kMismatch;
}
bool IsAbsent(Kind k) {
  return k == Kind::kAbsent || k == Kind::kAbsentOverflow;
}

IndexVote MakeVote(Kind kind, int replica) {
  IndexVote v;
  v.replica = replica;
  v.shard = 100 + uint32_t(replica);
  if (kind == Kind::kUnavailable) v.status = UnavailableError("down");
  if (kind == Kind::kMismatch) v.status = FailedPreconditionError("config");
  v.overflow = kind == Kind::kAbsentOverflow;
  if (kind == Kind::kV1 || kind == Kind::kV2) {
    v.has_entry = true;
    v.entry.version.tt_micros = kind == Kind::kV1 ? 1 : 2;
  }
  return v;
}

using Verdict = QuorumTally::Verdict;

// What the tally must report after `seen` votes of `seq`, recomputed from
// plain counts over the prefix.
struct Expected {
  Verdict verdict = Verdict::kPending;
  int preferred = -1;  // replica of the first successful vote
  int winner = -1;     // replica of the first vote for the quorumed version
  int second = -1;     // replica of the second vote for it
  bool overflow = false;
  bool config_mismatch = false;
};

// Verdict of the prefix `seq[0, len)`, ignoring earlier prefixes: which
// count has reached its threshold, or inquorate once every target voted.
Verdict PrefixVerdict(const std::vector<Kind>& seq, size_t len, int targets,
                      int quorum) {
  int failures = 0, absences = 0, v1 = 0, v2 = 0;
  for (size_t i = 0; i < len; ++i) {
    failures += IsFailure(seq[i]);
    absences += IsAbsent(seq[i]);
    v1 += seq[i] == Kind::kV1;
    v2 += seq[i] == Kind::kV2;
  }
  if (v1 >= quorum || v2 >= quorum) return Verdict::kQuorum;
  if (absences >= quorum) return Verdict::kAbsence;
  if (targets - failures < quorum) return Verdict::kImpossible;
  if (static_cast<int>(len) == targets) return Verdict::kInquorate;
  return Verdict::kPending;
}

Expected Oracle(const std::vector<Kind>& seq, size_t seen, int targets,
                int quorum) {
  Expected e;
  // The verdict is the first prefix that settles; votes after it are
  // ignored.
  size_t used = seen;
  for (size_t len = 1; len <= seen; ++len) {
    e.verdict = PrefixVerdict(seq, len, targets, quorum);
    if (e.verdict != Verdict::kPending) {
      used = len;
      break;
    }
  }
  for (size_t i = 0; i < used; ++i) {
    if (e.preferred < 0 && !IsFailure(seq[i])) e.preferred = int(i);
    e.overflow |= seq[i] == Kind::kAbsentOverflow;
    e.config_mismatch |= seq[i] == Kind::kMismatch;
  }
  if (e.verdict == Verdict::kQuorum) {
    const Kind won = seq[used - 1];
    for (size_t i = 0; i < used; ++i) {
      if (seq[i] != won) continue;
      if (e.winner < 0) {
        e.winner = int(i);
      } else if (e.second < 0) {
        e.second = int(i);
      }
    }
  }
  return e;
}

std::string Describe(const std::vector<Kind>& seq, size_t seen) {
  static const char* kNames[] = {"unavail", "mismatch", "absent",
                                 "absent+ovf", "v1", "v2"};
  std::string s;
  for (size_t i = 0; i < seq.size(); ++i) {
    s += (i ? "," : "");
    s += kNames[int(seq[i])];
  }
  return s + " after " + std::to_string(seen);
}

void CheckSequence(const std::vector<Kind>& seq, int quorum) {
  const int targets = static_cast<int>(seq.size());
  QuorumTally tally(targets, quorum);
  for (size_t seen = 1; seen <= seq.size(); ++seen) {
    const Verdict got =
        tally.Add(MakeVote(seq[seen - 1], static_cast<int>(seen - 1)));
    const Expected want = Oracle(seq, seen, targets, quorum);
    const std::string what = Describe(seq, seen);
    ASSERT_EQ(got, want.verdict) << what;
    ASSERT_EQ(tally.verdict(), want.verdict) << what;
    ASSERT_EQ(tally.preferred() ? tally.preferred()->replica : -1,
              want.preferred)
        << what;
    ASSERT_EQ(tally.overflow(), want.overflow) << what;
    ASSERT_EQ(tally.config_mismatch(), want.config_mismatch) << what;
    if (want.verdict == Verdict::kQuorum) {
      ASSERT_EQ(tally.winner().replica, want.winner) << what;
      ASSERT_TRUE(tally.winner().has_entry) << what;
      ASSERT_EQ(tally.winner().entry.version,
                MakeVote(seq[want.winner], 0).entry.version)
          << what;
      ASSERT_EQ(tally.second() ? tally.second()->replica : -1, want.second)
          << what;
    }
  }
  // Every target voted: the tally never stays pending.
  ASSERT_NE(tally.verdict(), Verdict::kPending) << Describe(seq, seq.size());
}

class QuorumTallyTest : public ::testing::TestWithParam<ReplicationMode> {};

TEST_P(QuorumTallyTest, MatchesCountOracleOnEverySequence) {
  const ReplicationMode mode = GetParam();
  const int replicas = ReplicaCount(mode);
  const int quorum = QuorumSize(mode);
  ASSERT_LE(replicas, QuorumTally::kMaxReplicas);
  int checked = 0;
  for (int targets = quorum; targets <= replicas; ++targets) {
    std::vector<Kind> seq(targets, Kind::kUnavailable);
    // Odometer over kKinds^targets.
    std::vector<int> digit(targets, 0);
    while (true) {
      for (int i = 0; i < targets; ++i) seq[i] = kKinds[digit[i]];
      CheckSequence(seq, quorum);
      ++checked;
      int i = 0;
      while (i < targets && ++digit[i] == int(std::size(kKinds))) {
        digit[i++] = 0;
      }
      if (i == targets) break;
    }
  }
  int want = 0;
  for (int t = 1, n = 6; t <= replicas; ++t, n *= 6) {
    if (t >= quorum) want += n;
  }
  EXPECT_EQ(checked, want);
}

INSTANTIATE_TEST_SUITE_P(Modes, QuorumTallyTest,
                         ::testing::Values(ReplicationMode::kR1,
                                           ReplicationMode::kR2Immutable,
                                           ReplicationMode::kR32),
                         [](const auto& info) {
                           switch (info.param) {
                             case ReplicationMode::kR1: return "R1";
                             case ReplicationMode::kR2Immutable: return "R2";
                             case ReplicationMode::kR32: return "R32";
                           }
                           return "unknown";
                         });

TEST(QuorumTally, VotesAfterTheVerdictAreIgnored) {
  QuorumTally tally(3, 2);
  EXPECT_EQ(tally.Add(MakeVote(Kind::kV1, 0)), Verdict::kPending);
  EXPECT_EQ(tally.Add(MakeVote(Kind::kV1, 1)), Verdict::kQuorum);
  EXPECT_EQ(tally.Add(MakeVote(Kind::kMismatch, 2)), Verdict::kQuorum);
  EXPECT_FALSE(tally.config_mismatch());
  EXPECT_EQ(tally.winner().replica, 0);
  ASSERT_NE(tally.second(), nullptr);
  EXPECT_EQ(tally.second()->replica, 1);
}

TEST(QuorumTally, WinnerCarriesTheScarPayload) {
  QuorumTally tally(3, 2);
  IndexVote first = MakeVote(Kind::kV2, 0);
  first.scar_data = BufferView(Bytes(4, std::byte{0x5a}));
  EXPECT_EQ(tally.Add(MakeVote(Kind::kV1, 1)), Verdict::kPending);
  EXPECT_EQ(tally.Add(std::move(first)), Verdict::kPending);
  EXPECT_EQ(tally.Add(MakeVote(Kind::kV2, 2)), Verdict::kQuorum);
  // The preferred responder (v1) lost; the winner is the first v2 vote.
  EXPECT_EQ(tally.preferred()->replica, 1);
  EXPECT_EQ(tally.winner().replica, 0);
  EXPECT_EQ(tally.winner().scar_data.size(), 4u);
  ASSERT_NE(tally.second(), nullptr);
  EXPECT_EQ(tally.second()->replica, 2);
}

}  // namespace
}  // namespace cm::cliquemap
