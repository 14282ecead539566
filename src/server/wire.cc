#include "server/wire.h"

#include <cstring>

namespace iqro::server {

namespace {

// Structural caps: a decoded message may never describe more state than a
// legitimate client could send. Violations are kBadSection — the length
// or count is inconsistent with the protocol, not merely truncated.
constexpr size_t kMaxString = 4096;
constexpr size_t kMaxTables = 512;
constexpr size_t kMaxColumns = 64;
constexpr size_t kMaxJoins = 512;
constexpr size_t kMaxLocals = 512;
constexpr size_t kMaxProjections = 512;
constexpr size_t kMaxAggregates = 64;
constexpr size_t kMaxMutations = 1u << 16;

[[noreturn]] void BadSection(const std::string& what) {
  throw SerializeError(SerializeError::Code::kBadSection, "wire: " + what);
}

void PutString(ByteWriter* w, const std::string& s) {
  if (s.size() > kMaxString) BadSection("string too long to encode");
  w->PutU32(static_cast<uint32_t>(s.size()));
  w->PutBytes(s.data(), s.size());
}

std::string GetString(ByteReader* r) {
  const uint32_t len = r->GetU32();
  if (len > kMaxString) BadSection("string length " + std::to_string(len));
  const unsigned char* p = r->GetBytes(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

uint32_t GetCount(ByteReader* r, size_t cap, const char* what) {
  const uint32_t n = r->GetU32();
  if (n > cap) BadSection(std::string(what) + " count " + std::to_string(n));
  return n;
}

uint8_t GetEnum(ByteReader* r, uint8_t max, const char* what) {
  const uint8_t v = r->GetU8();
  if (v > max) BadSection(std::string(what) + " value " + std::to_string(v));
  return v;
}

/// Message scaffolding: type byte + request id.
std::string Framed(MsgType type, uint64_t request_id, const std::string& body) {
  std::string payload;
  ByteWriter w(&payload);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(request_id);
  w.PutBytes(body.data(), body.size());
  return EncodeFrame(payload);
}

void CheckDrained(const ByteReader& r) {
  if (!r.AtEnd()) BadSection("trailing bytes after message body");
}

}  // namespace

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kRegisterQuery: return "register_query";
    case MsgType::kReleaseQuery: return "release_query";
    case MsgType::kRecordStatBatch: return "record_stat_batch";
    case MsgType::kFlush: return "flush";
    case MsgType::kSnapshot: return "snapshot";
    case MsgType::kGetMetrics: return "get_metrics";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kSubscribeQuery: return "subscribe_query";
    case MsgType::kRegistered: return "registered";
    case MsgType::kOk: return "ok";
    case MsgType::kError: return "error";
    case MsgType::kMetricsText: return "metrics_text";
    case MsgType::kPlanChange: return "plan_change";
    case MsgType::kQuarantine: return "quarantine";
  }
  return "unknown";
}

const char* WireErrorCodeName(WireErrorCode c) {
  switch (c) {
    case WireErrorCode::kBadRequest: return "bad_request";
    case WireErrorCode::kUnknownWorld: return "unknown_world";
    case WireErrorCode::kUnknownQuery: return "unknown_query";
    case WireErrorCode::kSpecMismatch: return "spec_mismatch";
    case WireErrorCode::kUnknownOptions: return "unknown_options";
    case WireErrorCode::kOverloaded: return "overloaded";
    case WireErrorCode::kShuttingDown: return "shutting_down";
    case WireErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

// ---- framing -------------------------------------------------------------

std::string EncodeFrame(const std::string& payload) {
  if (payload.size() > kMaxFramePayload) BadSection("frame payload too large to encode");
  std::string out;
  ByteWriter w(&out);
  w.PutBytes(kWireMagic, sizeof(kWireMagic));
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(Fnv1a64(payload.data(), payload.size()));
  w.PutBytes(payload.data(), payload.size());
  return out;
}

void FrameDecoder::Feed(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

bool FrameDecoder::Next(std::string* payload) {
  const size_t avail = buf_.size() - pos_;
  // Fail fast on garbage: the magic is checked as soon as its bytes are
  // in, not only once a whole header arrived.
  const size_t magic_avail = avail < sizeof(kWireMagic) ? avail : sizeof(kWireMagic);
  if (std::memcmp(buf_.data() + pos_, kWireMagic, magic_avail) != 0) {
    // Distinguish a wrong protocol version ("IQR" + other digit) from a
    // stream that is not ours at all.
    if (magic_avail == sizeof(kWireMagic) && std::memcmp(buf_.data() + pos_, kWireMagic, 3) == 0) {
      throw SerializeError(SerializeError::Code::kBadVersion,
                           "wire: unsupported protocol version byte");
    }
    throw SerializeError(SerializeError::Code::kBadMagic, "wire: bad frame magic");
  }
  if (avail < kFrameHeaderSize) return false;
  ByteReader header(buf_.data() + pos_ + sizeof(kWireMagic), kFrameHeaderSize - sizeof(kWireMagic));
  const uint32_t len = header.GetU32();
  if (len > kMaxFramePayload) BadSection("frame payload length " + std::to_string(len));
  const uint64_t checksum = header.GetU64();
  if (avail < kFrameHeaderSize + len) return false;
  const char* body = buf_.data() + pos_ + kFrameHeaderSize;
  if (Fnv1a64(body, len) != checksum) {
    throw SerializeError(SerializeError::Code::kChecksum, "wire: frame checksum mismatch");
  }
  payload->assign(body, len);
  pos_ += kFrameHeaderSize + len;
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer stays bounded by its unread tail.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

void FrameDecoder::Finish() const {
  if (buf_.size() != pos_) {
    throw SerializeError(SerializeError::Code::kTruncated,
                         "wire: stream ends inside a frame (" +
                             std::to_string(buf_.size() - pos_) + " buffered bytes)");
  }
}

std::vector<std::string> DecodeFrames(const std::string& image) {
  FrameDecoder dec;
  dec.Feed(image.data(), image.size());
  std::vector<std::string> out;
  std::string payload;
  while (dec.Next(&payload)) out.push_back(payload);
  dec.Finish();
  return out;
}

// ---- spec codecs ---------------------------------------------------------

void EncodeQuerySpec(ByteWriter* w, const QuerySpec& q) {
  PutString(w, q.name);
  w->PutU32(static_cast<uint32_t>(q.relations.size()));
  for (const QueryRelation& rel : q.relations) {
    w->PutI32(rel.table);
    PutString(w, rel.alias);
    w->PutU8(static_cast<uint8_t>(rel.window.kind));
    w->PutI64(rel.window.size);
    w->PutI32(rel.window.partition_col);
  }
  w->PutU32(static_cast<uint32_t>(q.joins.size()));
  for (const JoinPredicate& j : q.joins) {
    w->PutI32(j.left_rel);
    w->PutI32(j.left_col);
    w->PutI32(j.right_rel);
    w->PutI32(j.right_col);
    w->PutU8(static_cast<uint8_t>(j.op));
  }
  w->PutU32(static_cast<uint32_t>(q.locals.size()));
  for (const LocalPredicate& l : q.locals) {
    w->PutI32(l.rel);
    w->PutI32(l.col);
    w->PutU8(static_cast<uint8_t>(l.op));
    w->PutI64(l.value);
    w->PutI64(l.value2);
  }
  w->PutU32(static_cast<uint32_t>(q.projections.size()));
  for (const ColRef& c : q.projections) {
    w->PutI32(c.rel);
    w->PutI32(c.col);
  }
  w->PutU32(static_cast<uint32_t>(q.group_by.size()));
  for (const ColRef& c : q.group_by) {
    w->PutI32(c.rel);
    w->PutI32(c.col);
  }
  w->PutU32(static_cast<uint32_t>(q.aggregates.size()));
  for (const AggItem& a : q.aggregates) {
    w->PutU8(static_cast<uint8_t>(a.fn));
    w->PutI32(a.arg.rel);
    w->PutI32(a.arg.col);
  }
}

QuerySpec DecodeQuerySpec(ByteReader* r) {
  QuerySpec q;
  q.name = GetString(r);
  const uint32_t nrel = GetCount(r, static_cast<size_t>(kMaxRelations), "relations");
  q.relations.reserve(nrel);
  for (uint32_t i = 0; i < nrel; ++i) {
    QueryRelation rel;
    rel.table = r->GetI32();
    rel.alias = GetString(r);
    rel.window.kind = static_cast<WindowSpec::Kind>(
        GetEnum(r, static_cast<uint8_t>(WindowSpec::Kind::kTuples), "window kind"));
    rel.window.size = r->GetI64();
    rel.window.partition_col = r->GetI32();
    q.relations.push_back(std::move(rel));
  }
  const uint32_t njoin = GetCount(r, kMaxJoins, "joins");
  q.joins.reserve(njoin);
  for (uint32_t i = 0; i < njoin; ++i) {
    JoinPredicate j;
    j.left_rel = r->GetI32();
    j.left_col = r->GetI32();
    j.right_rel = r->GetI32();
    j.right_col = r->GetI32();
    j.op = static_cast<PredOp>(GetEnum(r, static_cast<uint8_t>(PredOp::kBetween), "join op"));
    q.joins.push_back(j);
  }
  const uint32_t nlocal = GetCount(r, kMaxLocals, "locals");
  q.locals.reserve(nlocal);
  for (uint32_t i = 0; i < nlocal; ++i) {
    LocalPredicate l;
    l.rel = r->GetI32();
    l.col = r->GetI32();
    l.op = static_cast<PredOp>(GetEnum(r, static_cast<uint8_t>(PredOp::kBetween), "local op"));
    l.value = r->GetI64();
    l.value2 = r->GetI64();
    q.locals.push_back(l);
  }
  const uint32_t nproj = GetCount(r, kMaxProjections, "projections");
  q.projections.reserve(nproj);
  for (uint32_t i = 0; i < nproj; ++i) {
    ColRef c;
    c.rel = r->GetI32();
    c.col = r->GetI32();
    q.projections.push_back(c);
  }
  const uint32_t ngroup = GetCount(r, kMaxProjections, "group_by");
  q.group_by.reserve(ngroup);
  for (uint32_t i = 0; i < ngroup; ++i) {
    ColRef c;
    c.rel = r->GetI32();
    c.col = r->GetI32();
    q.group_by.push_back(c);
  }
  const uint32_t nagg = GetCount(r, kMaxAggregates, "aggregates");
  q.aggregates.reserve(nagg);
  for (uint32_t i = 0; i < nagg; ++i) {
    AggItem a;
    a.fn = static_cast<AggFn>(GetEnum(r, static_cast<uint8_t>(AggFn::kCountDistinct), "agg fn"));
    a.arg.rel = r->GetI32();
    a.arg.col = r->GetI32();
    q.aggregates.push_back(a);
  }
  return q;
}

void EncodeCatalogSpec(ByteWriter* w, const testing::CatalogSpec& c) {
  w->PutU8(c.use_tpch ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(c.tables.size()));
  for (const testing::SyntheticTableSpec& t : c.tables) {
    PutString(w, t.name);
    w->PutF64(t.rows);
    w->PutF64(t.width);
    w->PutU32(static_cast<uint32_t>(t.cols.size()));
    for (const testing::SyntheticColumnSpec& col : t.cols) {
      w->PutI64(col.min);
      w->PutI64(col.max);
      w->PutF64(col.ndv);
    }
    w->PutU32(t.indexed_cols);
    w->PutI32(t.clustered_on);
    w->PutU64(t.hist_seed);
  }
}

testing::CatalogSpec DecodeCatalogSpec(ByteReader* r) {
  testing::CatalogSpec c;
  c.use_tpch = GetEnum(r, 1, "use_tpch flag") != 0;
  const uint32_t ntab = GetCount(r, kMaxTables, "tables");
  c.tables.reserve(ntab);
  for (uint32_t i = 0; i < ntab; ++i) {
    testing::SyntheticTableSpec t;
    t.name = GetString(r);
    t.rows = r->GetF64();
    t.width = r->GetF64();
    const uint32_t ncol = GetCount(r, kMaxColumns, "columns");
    t.cols.reserve(ncol);
    for (uint32_t ci = 0; ci < ncol; ++ci) {
      testing::SyntheticColumnSpec col;
      col.min = r->GetI64();
      col.max = r->GetI64();
      col.ndv = r->GetF64();
      t.cols.push_back(col);
    }
    t.indexed_cols = r->GetU32();
    t.clustered_on = r->GetI32();
    t.hist_seed = r->GetU64();
    c.tables.push_back(std::move(t));
  }
  return c;
}

void EncodeStatMutation(ByteWriter* w, const testing::StatMutation& m) {
  w->PutU8(static_cast<uint8_t>(m.kind));
  w->PutI32(m.target);
  w->PutU32(m.scope);
  w->PutF64(m.value);
}

testing::StatMutation DecodeStatMutation(ByteReader* r) {
  testing::StatMutation m;
  m.kind = static_cast<testing::StatMutation::Kind>(
      GetEnum(r, static_cast<uint8_t>(testing::StatMutation::Kind::kCardMultiplier),
              "mutation kind"));
  m.target = r->GetI32();
  m.scope = r->GetU32();
  m.value = r->GetF64();
  return m;
}

uint64_t WorldFingerprint(const testing::CatalogSpec& catalog, const QuerySpec& query) {
  std::string bytes;
  ByteWriter w(&bytes);
  EncodeCatalogSpec(&w, catalog);
  EncodeQuerySpec(&w, query);
  return Fnv1a64(bytes.data(), bytes.size());
}

// ---- message encoders ----------------------------------------------------

std::string EncodeRegisterQuery(uint64_t request_id, const RegisterQueryReq& req) {
  std::string body;
  ByteWriter w(&body);
  w.PutU64(req.world_key);
  w.PutU8(req.want_events ? 1 : 0);
  EncodeCatalogSpec(&w, req.catalog);
  EncodeQuerySpec(&w, req.query);
  PutString(&w, req.options_name);
  return Framed(MsgType::kRegisterQuery, request_id, body);
}

std::string EncodeReleaseQuery(uint64_t request_id, uint64_t query_id) {
  std::string body;
  ByteWriter w(&body);
  w.PutU64(query_id);
  return Framed(MsgType::kReleaseQuery, request_id, body);
}

std::string EncodeSubscribeQuery(uint64_t request_id, uint64_t query_id) {
  std::string body;
  ByteWriter w(&body);
  w.PutU64(query_id);
  return Framed(MsgType::kSubscribeQuery, request_id, body);
}

std::string EncodeRecordStatBatch(uint64_t request_id, const RecordStatBatchReq& req) {
  if (req.mutations.size() > kMaxMutations) BadSection("mutation batch too large to encode");
  std::string body;
  ByteWriter w(&body);
  w.PutU64(req.world_key);
  w.PutU32(static_cast<uint32_t>(req.mutations.size()));
  for (const testing::StatMutation& m : req.mutations) EncodeStatMutation(&w, m);
  return Framed(MsgType::kRecordStatBatch, request_id, body);
}

std::string EncodeFlush(uint64_t request_id, const FlushReq& req) {
  std::string body;
  ByteWriter w(&body);
  w.PutU8(req.all ? 1 : 0);
  w.PutU64(req.world_key);
  return Framed(MsgType::kFlush, request_id, body);
}

std::string EncodeSimpleRequest(MsgType type, uint64_t request_id) {
  return Framed(type, request_id, std::string());
}

std::string EncodeRegistered(uint64_t request_id, const RegisteredResp& resp) {
  std::string body;
  ByteWriter w(&body);
  w.PutU64(resp.query_id);
  w.PutU32(resp.shard);
  w.PutF64(resp.best_cost);
  return Framed(MsgType::kRegistered, request_id, body);
}

std::string EncodeOk(uint64_t request_id, uint64_t value) {
  std::string body;
  ByteWriter w(&body);
  w.PutU64(value);
  return Framed(MsgType::kOk, request_id, body);
}

std::string EncodeError(uint64_t request_id, WireErrorCode code, const std::string& message) {
  std::string body;
  ByteWriter w(&body);
  w.PutU8(static_cast<uint8_t>(code));
  PutString(&w, message.size() > kMaxString ? message.substr(0, kMaxString) : message);
  return Framed(MsgType::kError, request_id, body);
}

std::string EncodeMetricsText(uint64_t request_id, const std::string& text) {
  std::string body;
  ByteWriter w(&body);
  // Metrics text can exceed the generic string cap; it gets its own
  // length field bounded only by the frame cap.
  w.PutU32(static_cast<uint32_t>(text.size()));
  w.PutBytes(text.data(), text.size());
  return Framed(MsgType::kMetricsText, request_id, body);
}

std::string EncodePlanChangeEvent(const PlanChangeEventMsg& e) {
  std::string body;
  ByteWriter w(&body);
  w.PutU64(e.query_id);
  w.PutU64(e.world_key);
  w.PutU64(e.flush_epoch);
  w.PutF64(e.old_cost);
  w.PutF64(e.new_cost);
  w.PutI32(e.changed_operators);
  w.PutI32(e.total_operators);
  w.PutI32(e.join_order_prefix);
  w.PutI32(e.join_order_len);
  return Framed(MsgType::kPlanChange, 0, body);
}

std::string EncodeQuarantineEvent(const QuarantineEventMsg& e) {
  std::string body;
  ByteWriter w(&body);
  w.PutU64(e.query_id);
  w.PutU64(e.world_key);
  w.PutU8(e.reason);
  w.PutI32(e.strikes);
  w.PutU8(e.parked ? 1 : 0);
  PutString(&w, e.message);
  return Framed(MsgType::kQuarantine, 0, body);
}

// ---- message decoders ----------------------------------------------------

Request DecodeRequest(const std::string& payload) {
  ByteReader r(payload);
  Request req;
  const uint8_t type = r.GetU8();
  req.request_id = r.GetU64();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kRegisterQuery: {
      req.type = MsgType::kRegisterQuery;
      req.register_query.world_key = r.GetU64();
      req.register_query.want_events = GetEnum(&r, 1, "want_events flag") != 0;
      req.register_query.catalog = DecodeCatalogSpec(&r);
      req.register_query.query = DecodeQuerySpec(&r);
      req.register_query.options_name = GetString(&r);
      break;
    }
    case MsgType::kReleaseQuery:
      req.type = MsgType::kReleaseQuery;
      req.release_query.query_id = r.GetU64();
      break;
    case MsgType::kSubscribeQuery:
      req.type = MsgType::kSubscribeQuery;
      req.subscribe_query.query_id = r.GetU64();
      break;
    case MsgType::kRecordStatBatch: {
      req.type = MsgType::kRecordStatBatch;
      req.record_stat_batch.world_key = r.GetU64();
      const uint32_t n = GetCount(&r, kMaxMutations, "mutations");
      req.record_stat_batch.mutations.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        req.record_stat_batch.mutations.push_back(DecodeStatMutation(&r));
      }
      break;
    }
    case MsgType::kFlush:
      req.type = MsgType::kFlush;
      req.flush.all = GetEnum(&r, 1, "flush-all flag") != 0;
      req.flush.world_key = r.GetU64();
      break;
    case MsgType::kSnapshot:
    case MsgType::kGetMetrics:
    case MsgType::kShutdown:
      req.type = static_cast<MsgType>(type);
      break;
    default:
      BadSection("unknown request type " + std::to_string(type));
  }
  CheckDrained(r);
  return req;
}

ServerMessage DecodeServerMessage(const std::string& payload) {
  ByteReader r(payload);
  ServerMessage msg;
  const uint8_t type = r.GetU8();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kRegistered:
      msg.type = MsgType::kRegistered;
      msg.request_id = r.GetU64();
      msg.registered.query_id = r.GetU64();
      msg.registered.shard = r.GetU32();
      msg.registered.best_cost = r.GetF64();
      break;
    case MsgType::kOk:
      msg.type = MsgType::kOk;
      msg.request_id = r.GetU64();
      msg.ok.value = r.GetU64();
      break;
    case MsgType::kError: {
      msg.type = MsgType::kError;
      msg.request_id = r.GetU64();
      const uint8_t code =
          GetEnum(&r, static_cast<uint8_t>(WireErrorCode::kInternal), "error code");
      if (code == 0) BadSection("error code 0");
      msg.error.code = static_cast<WireErrorCode>(code);
      msg.error.message = GetString(&r);
      break;
    }
    case MsgType::kMetricsText: {
      msg.type = MsgType::kMetricsText;
      msg.request_id = r.GetU64();
      const uint32_t len = r.GetU32();
      if (len > kMaxFramePayload) BadSection("metrics text length");
      const unsigned char* p = r.GetBytes(len);
      msg.metrics.text.assign(reinterpret_cast<const char*>(p), len);
      break;
    }
    case MsgType::kPlanChange:
      msg.type = MsgType::kPlanChange;
      msg.request_id = r.GetU64();
      msg.plan_change.query_id = r.GetU64();
      msg.plan_change.world_key = r.GetU64();
      msg.plan_change.flush_epoch = r.GetU64();
      msg.plan_change.old_cost = r.GetF64();
      msg.plan_change.new_cost = r.GetF64();
      msg.plan_change.changed_operators = r.GetI32();
      msg.plan_change.total_operators = r.GetI32();
      msg.plan_change.join_order_prefix = r.GetI32();
      msg.plan_change.join_order_len = r.GetI32();
      break;
    case MsgType::kQuarantine:
      msg.type = MsgType::kQuarantine;
      msg.request_id = r.GetU64();
      msg.quarantine.query_id = r.GetU64();
      msg.quarantine.world_key = r.GetU64();
      msg.quarantine.reason = r.GetU8();
      msg.quarantine.strikes = r.GetI32();
      msg.quarantine.parked = GetEnum(&r, 1, "parked flag") != 0;
      msg.quarantine.message = GetString(&r);
      break;
    default:
      BadSection("unknown server message type " + std::to_string(type));
  }
  CheckDrained(r);
  return msg;
}

}  // namespace iqro::server
