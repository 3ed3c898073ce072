// Client-side version quorum (§5.1): the decision table behind every GET.
//
// Each index fetch against one of a key's replicas delivers an IndexVote.
// The tally counts them in arrival order and decides, vote by vote, whether
// the GET has
//   * a version quorum — `quorum` replicas agree on one IndexEntry version
//     (hit conditions 2 and 4; the data must then come from a member),
//   * an absence quorum — `quorum` replicas hold no entry (a miss, unless
//     an absence vote carried the bucket-overflow bit: then the key may be
//     RPC-servable, §4.2),
//   * become impossible — too many replicas failed to answer, or
//   * ended inquorate — every vote is in and neither quorum formed (mixed
//     versions under churn, §5.4).
//
// The tally is pure and synchronous: it issues nothing, waits on nothing
// and touches no client state, so the single-key GET and the batched
// MultiGet share it (and tests/test_quorum.cc checks it exhaustively).
// Storage is inline — a key has at most three replicas — so a GET pays no
// heap allocation for its quorum.
#ifndef CM_CLIQUEMAP_QUORUM_H_
#define CM_CLIQUEMAP_QUORUM_H_

#include <array>
#include <cstdint>

#include "common/status.h"
#include "cliquemap/layout.h"
#include "rma/memory.h"

namespace cm::cliquemap {

// One replica's contribution to a quorum decision.
struct IndexVote {
  int replica = -1;           // 0..R-1
  uint32_t shard = 0;         // physical shard of this replica
  Status status;              // fetch outcome
  bool has_entry = false;
  IndexEntry entry;
  bool overflow = false;      // bucket overflow bit observed
  rma::Snapshot scar_data;    // SCAR only: piggybacked DataEntry bytes
};

class QuorumTally {
 public:
  enum class Verdict { kPending, kQuorum, kAbsence, kImpossible, kInquorate };

  // R=3.2 is the widest replication mode.
  static constexpr int kMaxReplicas = 3;

  // Expects one vote from each of `targets` (<= kMaxReplicas) replicas, of
  // which `quorum` must agree.
  QuorumTally(int targets, int quorum) : targets_(targets), quorum_(quorum) {}

  // Counts one vote and returns the verdict so far. Once the verdict is
  // no longer kPending, further votes are ignored.
  Verdict Add(IndexVote vote);

  Verdict verdict() const { return verdict_; }
  // First successful responder (entry or absence), the preferred backend;
  // null until one arrives.
  const IndexVote* preferred() const {
    return num_votes_ > 0 ? &votes_[0] : nullptr;
  }
  // On kQuorum: the first vote for the winning version.
  const IndexVote& winner() const { return votes_[winner_.first]; }
  // On kQuorum: the second vote for the winning version (the hedge
  // target), or null when one vote made the quorum.
  const IndexVote* second() const {
    return winner_.second >= 0 ? &votes_[winner_.second] : nullptr;
  }
  // Some absence vote carried the bucket-overflow bit.
  bool overflow() const { return overflow_; }
  // Some replica reported a config id that contradicts the cell view.
  bool config_mismatch() const { return config_mismatch_; }

 private:
  struct Tally {
    VersionNumber version;
    int count = 0;
    int first = -1;   // index into votes_
    int second = -1;  // index into votes_
  };

  int targets_;
  int quorum_;
  int received_ = 0;
  int failures_ = 0;
  int absences_ = 0;
  bool overflow_ = false;
  bool config_mismatch_ = false;
  Verdict verdict_ = Verdict::kPending;
  // Successful votes in arrival order, and one tally per version seen.
  std::array<IndexVote, kMaxReplicas> votes_;
  int num_votes_ = 0;
  std::array<Tally, kMaxReplicas> tallies_;
  int num_tallies_ = 0;
  Tally winner_;
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_QUORUM_H_
