#include "cliquemap/quorum.h"

#include <cassert>
#include <utility>

namespace cm::cliquemap {

QuorumTally::Verdict QuorumTally::Add(IndexVote vote) {
  if (verdict_ != Verdict::kPending) return verdict_;
  ++received_;
  if (!vote.status.ok()) {
    ++failures_;
    if (vote.status.code() == StatusCode::kFailedPrecondition) {
      config_mismatch_ = true;  // the serving task moved (§6.1)
    }
    if (targets_ - failures_ < quorum_) return verdict_ = Verdict::kImpossible;
  } else {
    assert(num_votes_ < kMaxReplicas && "more votes than replicas");
    const int index = num_votes_++;
    votes_[index] = std::move(vote);
    const IndexVote& v = votes_[index];
    if (!v.has_entry) {
      ++absences_;
      overflow_ |= v.overflow;
      if (absences_ >= quorum_) return verdict_ = Verdict::kAbsence;
    } else {
      Tally* t = nullptr;
      for (int i = 0; i < num_tallies_; ++i) {
        if (tallies_[i].version == v.entry.version) t = &tallies_[i];
      }
      if (t == nullptr) {
        t = &tallies_[num_tallies_++];
        t->version = v.entry.version;
      }
      ++t->count;
      if (t->count == 1) t->first = index;
      if (t->count == 2) t->second = index;
      if (t->count >= quorum_) {
        winner_ = *t;
        return verdict_ = Verdict::kQuorum;
      }
    }
  }
  if (received_ >= targets_) verdict_ = Verdict::kInquorate;
  return verdict_;
}

}  // namespace cm::cliquemap
