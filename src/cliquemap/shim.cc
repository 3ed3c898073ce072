#include "cliquemap/shim.h"

#include "cliquemap/proto.h"

namespace cm::cliquemap {
namespace {

// Shim frame ops.
constexpr uint32_t kOpGet = 1;
constexpr uint32_t kOpSet = 2;
constexpr uint32_t kOpErase = 3;
constexpr uint32_t kOpMultiGet = 4;
constexpr uint32_t kOpCas = 5;

constexpr uint16_t kTagOp = 100;
constexpr uint16_t kTagStatus = 101;
// MultiGet reply: one nested TLV frame per key (repeated, in key order),
// each carrying kTagStatus + optional value/version. Old shim binaries
// skip the unknown tag cleanly — the evolution property the pipe protocol
// shares with the RPC wire format.
constexpr uint16_t kTagResult = 102;

}  // namespace

std::string_view ShimLanguageName(ShimLanguage lang) {
  switch (lang) {
    case ShimLanguage::kCpp: return "cpp";
    case ShimLanguage::kJava: return "java";
    case ShimLanguage::kGo: return "go";
    case ShimLanguage::kPython: return "py";
  }
  return "?";
}

ShimCosts ShimCosts::For(ShimLanguage lang) {
  switch (lang) {
    case ShimLanguage::kCpp:
      return {};  // native library, no pipe
    case ShimLanguage::kJava:
      // JVM marshal + pipe hop; the shared-memory fast path (§6.2 footnote)
      // keeps per-byte cost low.
      return {sim::Microseconds(2.5), sim::Microseconds(4), 0.3};
    case ShimLanguage::kGo:
      return {sim::Microseconds(3.5), sim::Microseconds(6), 0.6};
    case ShimLanguage::kPython:
      return {sim::Microseconds(22), sim::Microseconds(12), 3.0};
  }
  return {};
}

LanguageShim::LanguageShim(Client* client, ShimLanguage lang)
    : client_(client),
      lang_(lang),
      costs_(ShimCosts::For(lang)),
      sim_(client->simulator()),
      alive_(std::make_shared<bool>(true)) {
  if (lang_ != ShimLanguage::kCpp) {
    requests_ =
        std::make_unique<sim::Channel<std::shared_ptr<PipeRequest>>>(sim_);
    sim_.Spawn(ServeLoop());
  }
}

LanguageShim::~LanguageShim() {
  *alive_ = false;
  if (requests_) {
    // Wake the serve loop so it can observe shutdown.
    auto poison = std::make_shared<PipeRequest>(
        PipeRequest{Bytes{}, sim::OneShot<Bytes>(sim_)});
    requests_->Send(std::move(poison));
  }
}

sim::Task<Bytes> LanguageShim::HandleFrame(Bytes frame) {
  // NOTE: dispatch is if/else rather than switch — gcc 12 miscompiles
  // co_await inside switch-case blocks (double-destruction of case-scoped
  // locals); see sim/sync.h for the family of workarounds.
  rpc::WireReader r(frame);
  const uint32_t op = r.GetU32(kTagOp).value_or(0);
  rpc::WireWriter out;
  if (op == kOpGet) {
    auto key = r.GetString(proto::kTagKey);
    if (!key) {
      out.PutU32(kTagStatus,
                 static_cast<uint32_t>(StatusCode::kInvalidArgument));
      co_return std::move(out).Take();
    }
    auto result = co_await client_->Get(*key);
    out.PutU32(kTagStatus, static_cast<uint32_t>(result.status().code()));
    if (result.ok()) proto::PutHit(out, result->value, result->version);
  } else if (op == kOpSet) {
    auto key = r.GetString(proto::kTagKey);
    auto value = r.GetBytes(proto::kTagValue);
    if (!key || !value) {
      out.PutU32(kTagStatus,
                 static_cast<uint32_t>(StatusCode::kInvalidArgument));
      co_return std::move(out).Take();
    }
    Status s =
        co_await client_->Set(*key, Bytes(value->begin(), value->end()));
    out.PutU32(kTagStatus, static_cast<uint32_t>(s.code()));
  } else if (op == kOpErase) {
    auto key = r.GetString(proto::kTagKey);
    if (!key) {
      out.PutU32(kTagStatus,
                 static_cast<uint32_t>(StatusCode::kInvalidArgument));
      co_return std::move(out).Take();
    }
    Status s = co_await client_->Erase(*key);
    out.PutU32(kTagStatus, static_cast<uint32_t>(s.code()));
  } else if (op == kOpMultiGet) {
    std::vector<std::string> keys;
    const size_t n = r.CountBytes(proto::kTagKey);
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto k = r.GetBytesAt(proto::kTagKey, i);
      if (!k) {
        out.PutU32(kTagStatus,
                   static_cast<uint32_t>(StatusCode::kInvalidArgument));
        co_return std::move(out).Take();
      }
      keys.push_back(ToString(*k));
    }
    auto batch = co_await client_->MultiGet(std::move(keys));
    out.PutU32(kTagStatus, static_cast<uint32_t>(StatusCode::kOk));
    for (const auto& result : batch.results) {
      rpc::WireWriter sub;
      sub.PutU32(kTagStatus, static_cast<uint32_t>(result.status().code()));
      if (result.ok()) proto::PutHit(sub, result->value, result->version);
      out.PutBytes(kTagResult, std::move(sub).Take());
    }
  } else if (op == kOpCas) {
    auto key = r.GetString(proto::kTagKey);
    auto value = r.GetBytes(proto::kTagValue);
    auto expected = proto::GetVersion(r, proto::kTagExpectedTt);
    if (!key || !value || !expected) {
      out.PutU32(kTagStatus,
                 static_cast<uint32_t>(StatusCode::kInvalidArgument));
      co_return std::move(out).Take();
    }
    auto swapped = co_await client_->Cas(
        *key, Bytes(value->begin(), value->end()), *expected);
    out.PutU32(kTagStatus, static_cast<uint32_t>(swapped.status().code()));
    if (swapped.ok()) out.PutU32(proto::kTagApplied, *swapped ? 1 : 0);
  } else {
    out.PutU32(kTagStatus, static_cast<uint32_t>(StatusCode::kUnimplemented));
  }
  co_return std::move(out).Take();
}

sim::Task<void> LanguageShim::ServeLoop() {
  auto alive = alive_;
  while (*alive) {
    std::shared_ptr<PipeRequest> req = co_await requests_->Recv();
    if (!*alive || req->frame.empty()) break;
    // Subprocess-side pipe read + dispatch (C++ side is cheap).
    co_await client_->simulator().Delay(sim::Microseconds(1));
    Bytes reply = co_await HandleFrame(std::move(req->frame));
    if (!*alive) co_return;
    req->reply.Set(std::move(reply));
  }
}

sim::Task<Bytes> LanguageShim::Roundtrip(Bytes frame) {
  ++messages_;
  sim::CpuPool& cpu = client_->fabric().host(client_->host()).cpu();
  // Language-side marshal + pipe write (copy cost scales with frame size).
  co_await cpu.Run(costs_.marshal_cpu +
                   static_cast<sim::Duration>(costs_.per_byte_ns *
                                              double(frame.size())));
  co_await sim_.Delay(costs_.pipe_hop);

  auto req = std::make_shared<PipeRequest>(
      PipeRequest{std::move(frame), sim::OneShot<Bytes>(sim_)});
  requests_->Send(req);
  Bytes reply = co_await req->reply.Wait();

  // Pipe hop back + in-language unmarshal of the reply.
  co_await sim_.Delay(costs_.pipe_hop);
  co_await cpu.Run(costs_.marshal_cpu / 2 +
                   static_cast<sim::Duration>(costs_.per_byte_ns *
                                              double(reply.size())));
  co_return reply;
}

sim::Task<StatusOr<GetResult>> LanguageShim::Get(std::string key) {
  if (lang_ == ShimLanguage::kCpp) {
    co_return co_await client_->Get(std::move(key));
  }
  rpc::WireWriter w;
  w.PutU32(kTagOp, kOpGet);
  w.PutString(proto::kTagKey, key);
  Bytes reply = co_await Roundtrip(std::move(w).Take());
  rpc::WireReader r(reply);
  const auto code =
      static_cast<StatusCode>(r.GetU32(kTagStatus).value_or(
          static_cast<uint32_t>(StatusCode::kInternal)));
  if (code != StatusCode::kOk) co_return Status(code, "shim get failed");
  auto hit = proto::GetHit(r);
  if (!hit) co_return InternalError("malformed shim reply");
  co_return GetResult::Copy(*hit);
}

sim::Task<Status> LanguageShim::Set(std::string key, Bytes value) {
  if (lang_ == ShimLanguage::kCpp) {
    co_return co_await client_->Set(std::move(key), std::move(value));
  }
  rpc::WireWriter w;
  w.PutU32(kTagOp, kOpSet);
  w.PutString(proto::kTagKey, key);
  w.PutBytes(proto::kTagValue, value);
  Bytes reply = co_await Roundtrip(std::move(w).Take());
  rpc::WireReader r(reply);
  const auto code =
      static_cast<StatusCode>(r.GetU32(kTagStatus).value_or(
          static_cast<uint32_t>(StatusCode::kInternal)));
  co_return code == StatusCode::kOk ? OkStatus() : Status(code, "shim set");
}

sim::Task<Status> LanguageShim::Erase(std::string key) {
  if (lang_ == ShimLanguage::kCpp) {
    co_return co_await client_->Erase(std::move(key));
  }
  rpc::WireWriter w;
  w.PutU32(kTagOp, kOpErase);
  w.PutString(proto::kTagKey, key);
  Bytes reply = co_await Roundtrip(std::move(w).Take());
  rpc::WireReader r(reply);
  const auto code =
      static_cast<StatusCode>(r.GetU32(kTagStatus).value_or(
          static_cast<uint32_t>(StatusCode::kInternal)));
  co_return code == StatusCode::kOk ? OkStatus() : Status(code, "shim erase");
}

sim::Task<std::vector<StatusOr<GetResult>>> LanguageShim::MultiGet(
    std::vector<std::string> keys) {
  if (lang_ == ShimLanguage::kCpp) {
    // Thin compatibility wrapper: the shim's pipe protocol predates
    // MultiGetResult and only carries per-key results, so the batch stats
    // are dropped here — but the lookup itself rides the batched pipeline.
    auto batch = co_await client_->MultiGet(std::move(keys));
    co_return std::move(batch.results);
  }
  // The whole batch crosses the pipe as ONE frame (repeated key field): the
  // shim amortizes its per-message marshal + hop costs exactly like the
  // incast workloads amortize theirs.
  rpc::WireWriter w;
  w.PutU32(kTagOp, kOpMultiGet);
  for (const std::string& key : keys) w.PutString(proto::kTagKey, key);
  const size_t n = keys.size();
  Bytes reply = co_await Roundtrip(std::move(w).Take());
  rpc::WireReader r(reply);
  std::vector<StatusOr<GetResult>> results;
  results.reserve(n);
  const auto code =
      static_cast<StatusCode>(r.GetU32(kTagStatus).value_or(
          static_cast<uint32_t>(StatusCode::kInternal)));
  if (code != StatusCode::kOk) {
    for (size_t i = 0; i < n; ++i) {
      results.emplace_back(Status(code, "shim multiget failed"));
    }
    co_return results;
  }
  for (size_t i = 0; i < n; ++i) {
    auto sub = r.GetBytesAt(kTagResult, i);
    if (!sub) {
      results.emplace_back(InternalError("malformed shim multiget reply"));
      continue;
    }
    rpc::WireReader rr(*sub);
    const auto sub_code =
        static_cast<StatusCode>(rr.GetU32(kTagStatus).value_or(
            static_cast<uint32_t>(StatusCode::kInternal)));
    if (sub_code != StatusCode::kOk) {
      results.emplace_back(Status(sub_code, "shim multiget entry failed"));
      continue;
    }
    auto hit = proto::GetHit(rr);
    if (!hit) {
      results.emplace_back(InternalError("malformed shim multiget entry"));
      continue;
    }
    results.emplace_back(GetResult::Copy(*hit));
  }
  co_return results;
}

sim::Task<StatusOr<bool>> LanguageShim::Cas(std::string key, Bytes value,
                                            VersionNumber expected) {
  if (lang_ == ShimLanguage::kCpp) {
    co_return co_await client_->Cas(std::move(key), std::move(value),
                                    expected);
  }
  rpc::WireWriter w;
  w.PutU32(kTagOp, kOpCas);
  w.PutString(proto::kTagKey, key);
  w.PutBytes(proto::kTagValue, value);
  proto::PutVersion(w, expected, proto::kTagExpectedTt);
  Bytes reply = co_await Roundtrip(std::move(w).Take());
  rpc::WireReader r(reply);
  const auto code =
      static_cast<StatusCode>(r.GetU32(kTagStatus).value_or(
          static_cast<uint32_t>(StatusCode::kInternal)));
  if (code != StatusCode::kOk) co_return Status(code, "shim cas failed");
  co_return r.GetU32(proto::kTagApplied).value_or(0) != 0;
}

}  // namespace cm::cliquemap
