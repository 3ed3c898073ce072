#include "net/faults.h"

#include <algorithm>
#include <cstdio>

namespace cm::net {

namespace {
uint64_t LinkKey(HostId src, HostId dst) {
  return (uint64_t(src) << 32) | uint64_t(dst);
}
}  // namespace

FaultPlan::FaultPlan(uint64_t seed) : seed_(seed), rng_(seed) {}

void FaultPlan::SetHostRates(HostId host, const LinkFaultRates& rates) {
  host_rates_[host] = rates;
}

void FaultPlan::SetLinkRates(HostId src, HostId dst,
                             const LinkFaultRates& rates) {
  link_rates_[LinkKey(src, dst)] = rates;
}

void FaultPlan::AddPartition(HostId src, HostId dst, sim::Time from,
                             sim::Time heal) {
  partitions_.push_back(Partition{src, dst, from, heal});
}

void FaultPlan::AddSymmetricPartition(HostId a, HostId b, sim::Time from,
                                      sim::Time heal) {
  AddPartition(a, b, from, heal);
  AddPartition(b, a, from, heal);
}

void FaultPlan::AddHostPause(HostId host, sim::Time from,
                             sim::Duration length) {
  pauses_.push_back(Pause{host, from, from + length});
}

void FaultPlan::ScheduleCrash(uint32_t shard, sim::Time at,
                              sim::Duration downtime) {
  crash_schedule_.push_back(CrashEvent{shard, at, downtime});
}

void FaultPlan::SetActiveWindow(sim::Time from, sim::Time until) {
  active_from_ = from;
  active_until_ = until;
}

bool FaultPlan::PartitionedAt(sim::Time now, HostId src, HostId dst) const {
  for (const Partition& p : partitions_) {
    if (p.src == src && p.dst == dst && now >= p.from && now < p.heal) {
      return true;
    }
  }
  return false;
}

sim::Time FaultPlan::PausedUntil(sim::Time now, HostId host) const {
  sim::Time until = now;
  for (const Pause& p : pauses_) {
    if (p.host == host && now >= p.from && now < p.until) {
      until = std::max(until, p.until);
    }
  }
  return until;
}

void FaultPlan::NotePauseStall(sim::Time now, HostId host) {
  ++stats_.pause_stalls;
  Record(now, 'S', host, host);
}

const LinkFaultRates& FaultPlan::RatesFor(HostId src, HostId dst,
                                          LinkFaultRates& scratch) const {
  if (auto it = link_rates_.find(LinkKey(src, dst)); it != link_rates_.end()) {
    return it->second;
  }
  auto s = host_rates_.find(src);
  auto d = host_rates_.find(dst);
  const bool have_s = s != host_rates_.end();
  const bool have_d = d != host_rates_.end();
  if (!have_s && !have_d) return default_rates_;
  if (have_s && !have_d) return s->second;
  if (!have_s && have_d) return d->second;
  scratch.drop = std::max(s->second.drop, d->second.drop);
  scratch.corrupt = std::max(s->second.corrupt, d->second.corrupt);
  scratch.duplicate = std::max(s->second.duplicate, d->second.duplicate);
  scratch.delay = std::max(s->second.delay, d->second.delay);
  scratch.delay_mean = std::max(s->second.delay_mean, d->second.delay_mean);
  return scratch;
}

void FaultPlan::Record(sim::Time now, char kind, HostId src, HostId dst) {
  ++trace_events_;
  // FNV-1a over the event tuple; byte order fixed by the shifts.
  auto mix = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fingerprint_ ^= (v >> (8 * i)) & 0xff;
      fingerprint_ *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(now));
  mix(static_cast<uint64_t>(kind));
  mix((uint64_t(src) << 32) | dst);
  if (trace_.size() < 1024) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "t=%.3fms %c %u->%u", sim::ToMillis(now),
                  kind, src, dst);
    trace_.emplace_back(buf);
  }
}

MessageFate FaultPlan::Roll(sim::Time now, HostId src, HostId dst) {
  MessageFate fate;
  ++stats_.messages;
  if (PartitionedAt(now, src, dst)) {
    fate.delivered = false;
    fate.partitioned = true;
    ++stats_.partition_blocks;
    Record(now, 'P', src, dst);
    return fate;
  }
  if (now < active_from_ || (active_until_ != 0 && now >= active_until_)) {
    return fate;
  }
  LinkFaultRates scratch;
  const LinkFaultRates& r = RatesFor(src, dst, scratch);
  // Draw all four decisions unconditionally so the stream position per
  // message is fixed regardless of which faults are enabled.
  const double d_drop = rng_.NextDouble();
  const double d_corrupt = rng_.NextDouble();
  const double d_dup = rng_.NextDouble();
  const double d_delay = rng_.NextDouble();
  if (d_drop < r.drop) {
    fate.delivered = false;
    ++stats_.drops;
    Record(now, 'D', src, dst);
    return fate;
  }
  if (d_corrupt < r.corrupt) {
    fate.corrupt = true;
    ++stats_.corruptions;
    Record(now, 'C', src, dst);
  }
  if (d_dup < r.duplicate) {
    fate.duplicate = true;
    ++stats_.duplicates;
    Record(now, 'U', src, dst);
  }
  if (d_delay < r.delay) {
    fate.extra_delay = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(rng_.NextExp(double(r.delay_mean))));
    ++stats_.delays;
    Record(now, 'L', src, dst);
  }
  return fate;
}

void FaultPlan::CorruptBytes(Bytes& payload) {
  if (payload.empty()) return;
  const uint64_t bit = rng_.NextBounded(uint64_t(payload.size()) * 8);
  payload[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
}

BufferView FaultPlan::CorruptCow(BufferView payload) {
  if (payload.empty()) return payload;
  const uint64_t bit = rng_.NextBounded(uint64_t(payload.size()) * 8);
  Buffer copy = Buffer::Allocate(payload.size());
  std::memcpy(copy.data(), payload.data(), payload.size());
  BufferStats::NoteCopy(static_cast<int64_t>(payload.size()));
  copy.data()[bit / 8] ^=
      std::byte{static_cast<unsigned char>(1u << (bit % 8))};
  return std::move(copy).Share();
}

std::string FaultPlan::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "faults{seed=%llu msgs=%lld drops=%lld corrupt=%lld dup=%lld "
                "delay=%lld partition=%lld stalls=%lld trace=%lld fp=%016llx}",
                static_cast<unsigned long long>(seed_),
                static_cast<long long>(stats_.messages),
                static_cast<long long>(stats_.drops),
                static_cast<long long>(stats_.corruptions),
                static_cast<long long>(stats_.duplicates),
                static_cast<long long>(stats_.delays),
                static_cast<long long>(stats_.partition_blocks),
                static_cast<long long>(stats_.pause_stalls),
                static_cast<long long>(trace_events_),
                static_cast<unsigned long long>(fingerprint_));
  return buf;
}

void FaultPlan::BindMetrics(metrics::Registry* registry) {
  exports_.Bind(registry);
  if (registry == nullptr) return;
  metrics::ExportCounters(exports_, "cm.faults.", {}, stats_);
  exports_.ExportCounter("cm.faults.trace_events", {}, &trace_events_);
  exports_.ExportGauge("cm.faults.fingerprint", {}, [this] {
    return static_cast<int64_t>(fingerprint_);
  });
}

}  // namespace cm::net
