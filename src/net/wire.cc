#include "src/net/wire.h"

#include <cstring>

namespace kboost {

namespace {

// ---- Little-endian append helpers -----------------------------------------

void AppendU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void AppendU16(uint16_t v, std::string* out) {
  for (int i = 0; i < 2; ++i) AppendU8(static_cast<uint8_t>(v >> (8 * i)), out);
}

void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) AppendU8(static_cast<uint8_t>(v >> (8 * i)), out);
}

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) AppendU8(static_cast<uint8_t>(v >> (8 * i)), out);
}

/// Doubles travel as their IEEE-754 bit pattern so they round-trip
/// bit-identically (the divergence gates compare with ==).
void AppendF64(double v, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(bits, out);
}

void AppendString(const std::string& s, std::string* out) {
  AppendU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void AppendNodeVec(const std::vector<NodeId>& v, std::string* out) {
  AppendU32(static_cast<uint32_t>(v.size()), out);
  for (NodeId id : v) AppendU32(id, out);
}

void AppendStatus(const Status& status, std::string* out) {
  AppendU8(WireCodeFromStatus(status.code()), out);
  AppendString(status.message(), out);
}

// ---- Bounds-checked reader -------------------------------------------------

/// Sequential reader over one frame body. Every Read* fails (returns false)
/// instead of reading past the declared length; decoders turn that into a
/// typed InvalidArgument. Nothing here trusts a declared count: a string or
/// vector length is checked against the bytes actually remaining before any
/// allocation, so a hostile header can never balloon memory past the frame
/// bound.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (size_ - pos_ < 1) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU16(uint16_t* v) {
    uint8_t b[2];
    if (!ReadBytes(b, 2)) return false;
    *v = static_cast<uint16_t>(b[0] | (b[1] << 8));
    return true;
  }

  bool ReadU32(uint32_t* v) {
    uint8_t b[4];
    if (!ReadBytes(b, 4)) return false;
    *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool ReadF64(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (size_ - pos_ < len) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  bool ReadNodeVec(std::vector<NodeId>* v) {
    uint32_t count = 0;
    if (!ReadU32(&count)) return false;
    if ((size_ - pos_) / sizeof(uint32_t) < count) return false;
    v->clear();
    v->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t id = 0;
      ReadU32(&id);  // bounds proven above
      v->push_back(id);
    }
    return true;
  }

  bool ReadStatus(Status* out) {
    uint8_t code = 0;
    std::string message;
    if (!ReadU8(&code) || !ReadString(&message)) return false;
    StatusOr<StatusCode> decoded = StatusCodeFromWire(code);
    if (!decoded.ok()) return false;
    *out = MakeStatus(decoded.value(), std::move(message));
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }

  /// Rebuilds a Status from a decoded (code, message) pair. Encoded OK
  /// frames never carry a message, so the OK branch is exact.
  static Status MakeStatus(StatusCode code, std::string message) {
    switch (code) {
      case StatusCode::kOk:
        return Status::Ok();
      case StatusCode::kInvalidArgument:
        return Status::InvalidArgument(std::move(message));
      case StatusCode::kNotFound:
        return Status::NotFound(std::move(message));
      case StatusCode::kOutOfRange:
        return Status::OutOfRange(std::move(message));
      case StatusCode::kInternal:
        return Status::Internal(std::move(message));
      case StatusCode::kIoError:
        return Status::IoError(std::move(message));
      case StatusCode::kFailedPrecondition:
        return Status::FailedPrecondition(std::move(message));
      case StatusCode::kCancelled:
        return Status::Cancelled(std::move(message));
      case StatusCode::kDeadlineExceeded:
        return Status::DeadlineExceeded(std::move(message));
      case StatusCode::kResourceExhausted:
        return Status::ResourceExhausted(std::move(message));
      case StatusCode::kUnavailable:
        return Status::Unavailable(std::move(message));
    }
    return Status::Internal("unreachable status code");
  }

 private:
  bool ReadBytes(uint8_t* out, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " frame body");
}

/// Wraps a finished body in its header. The body length is known only after
/// encoding, so frames are built body-first.
std::string Frame(FrameType type, uint32_t request_id, std::string body) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  AppendFrameHeader(type, request_id, static_cast<uint32_t>(body.size()),
                    &frame);
  frame.append(body);
  return frame;
}

}  // namespace

void AppendFrameHeader(FrameType type, uint32_t request_id, uint32_t body_len,
                       std::string* out) {
  AppendU32(kWireMagic, out);
  AppendU8(kWireVersion, out);
  AppendU8(static_cast<uint8_t>(type), out);
  AppendU16(0, out);  // flags, reserved
  AppendU32(request_id, out);
  AppendU32(body_len, out);
}

Status DecodeFrameHeader(const uint8_t* bytes, size_t max_frame_bytes,
                         FrameHeader* out) {
  Reader reader(bytes, kFrameHeaderBytes);
  uint32_t magic = 0, request_id = 0, body_len = 0;
  uint8_t version = 0, type = 0;
  uint16_t flags = 0;
  reader.ReadU32(&magic);
  reader.ReadU8(&version);
  reader.ReadU8(&type);
  reader.ReadU16(&flags);
  reader.ReadU32(&request_id);
  reader.ReadU32(&body_len);
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic (not a kboost client?)");
  }
  if (version != kWireVersion) {
    return Status::FailedPrecondition(
        "unsupported wire version " + std::to_string(version) +
        " (this server speaks version " + std::to_string(kWireVersion) + ")");
  }
  if (flags != 0) {
    return Status::InvalidArgument("reserved frame flags must be zero");
  }
  if (type < static_cast<uint8_t>(FrameType::kQuery) ||
      type > static_cast<uint8_t>(FrameType::kError)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (body_len > max_frame_bytes) {
    return Status::InvalidArgument(
        "declared frame body of " + std::to_string(body_len) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte frame limit");
  }
  out->type = static_cast<FrameType>(type);
  out->request_id = request_id;
  out->body_len = body_len;
  return Status::Ok();
}

uint8_t WireCodeFromStatus(StatusCode code) {
  // Pinned independently of the enum's numeric values: the wire is a
  // compatibility surface, the enum is not.
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 1;
    case StatusCode::kNotFound:
      return 2;
    case StatusCode::kOutOfRange:
      return 3;
    case StatusCode::kInternal:
      return 4;
    case StatusCode::kIoError:
      return 5;
    case StatusCode::kFailedPrecondition:
      return 6;
    case StatusCode::kCancelled:
      return 7;
    case StatusCode::kDeadlineExceeded:
      return 8;
    case StatusCode::kResourceExhausted:
      return 9;
    case StatusCode::kUnavailable:
      return 10;
  }
  return 4;  // Internal — unreachable for valid enum values
}

StatusOr<StatusCode> StatusCodeFromWire(uint8_t wire_code) {
  switch (wire_code) {
    case 0:
      return StatusCode::kOk;
    case 1:
      return StatusCode::kInvalidArgument;
    case 2:
      return StatusCode::kNotFound;
    case 3:
      return StatusCode::kOutOfRange;
    case 4:
      return StatusCode::kInternal;
    case 5:
      return StatusCode::kIoError;
    case 6:
      return StatusCode::kFailedPrecondition;
    case 7:
      return StatusCode::kCancelled;
    case 8:
      return StatusCode::kDeadlineExceeded;
    case 9:
      return StatusCode::kResourceExhausted;
    case 10:
      return StatusCode::kUnavailable;
    default:
      return Status::InvalidArgument("unknown wire status code " +
                                     std::to_string(wire_code));
  }
}

// ---- Query -----------------------------------------------------------------

std::string EncodeQueryFrame(uint32_t request_id, const WireQuery& query) {
  std::string body;
  AppendString(query.pool, &body);
  AppendU64(query.k, &body);
  AppendU8(static_cast<uint8_t>(query.mode), &body);
  return Frame(FrameType::kQuery, request_id, std::move(body));
}

Status DecodeQueryBody(const uint8_t* body, size_t len, WireQuery* out) {
  Reader reader(body, len);
  uint8_t mode = 0;
  if (!reader.ReadString(&out->pool) || !reader.ReadU64(&out->k) ||
      !reader.ReadU8(&mode) || !reader.AtEnd()) {
    return Malformed("query");
  }
  if (mode > static_cast<uint8_t>(SolveMode::kLbOnly)) {
    return Status::InvalidArgument("unknown solve mode " +
                                   std::to_string(mode) + " on the wire");
  }
  out->mode = static_cast<SolveMode>(mode);
  return Status::Ok();
}

std::string EncodeQueryReplyFrame(uint32_t request_id,
                                  const WireQueryReply& reply) {
  std::string body;
  AppendStatus(reply.status, &body);
  if (reply.status.ok()) {
    AppendU64(reply.pool_version, &body);
    AppendF64(reply.solve_seconds, &body);
    AppendNodeVec(reply.best_set, &body);
    AppendF64(reply.best_estimate, &body);
    AppendNodeVec(reply.lb_set, &body);
    AppendF64(reply.lb_mu_hat, &body);
    AppendF64(reply.lb_delta_hat, &body);
    AppendNodeVec(reply.delta_set, &body);
    AppendF64(reply.delta_delta_hat, &body);
    AppendU64(reply.pool_budget, &body);
    AppendU8(reply.pool_reused ? 1 : 0, &body);
    AppendU64(reply.num_samples, &body);
    AppendU64(reply.num_boostable, &body);
  }
  return Frame(FrameType::kQueryReply, request_id, std::move(body));
}

Status DecodeQueryReplyBody(const uint8_t* body, size_t len,
                            WireQueryReply* out) {
  Reader reader(body, len);
  if (!reader.ReadStatus(&out->status)) return Malformed("query reply");
  if (!out->status.ok()) {
    return reader.AtEnd() ? Status::Ok() : Malformed("query reply");
  }
  uint8_t pool_reused = 0;
  if (!reader.ReadU64(&out->pool_version) ||
      !reader.ReadF64(&out->solve_seconds) ||
      !reader.ReadNodeVec(&out->best_set) ||
      !reader.ReadF64(&out->best_estimate) ||
      !reader.ReadNodeVec(&out->lb_set) || !reader.ReadF64(&out->lb_mu_hat) ||
      !reader.ReadF64(&out->lb_delta_hat) ||
      !reader.ReadNodeVec(&out->delta_set) ||
      !reader.ReadF64(&out->delta_delta_hat) ||
      !reader.ReadU64(&out->pool_budget) || !reader.ReadU8(&pool_reused) ||
      !reader.ReadU64(&out->num_samples) ||
      !reader.ReadU64(&out->num_boostable) || !reader.AtEnd()) {
    return Malformed("query reply");
  }
  out->pool_reused = pool_reused != 0;
  return Status::Ok();
}

// ---- Stats -----------------------------------------------------------------

std::string EncodeStatsFrame(uint32_t request_id) {
  return Frame(FrameType::kStats, request_id, std::string());
}

std::string EncodeStatsReplyFrame(uint32_t request_id,
                                  const ServiceStatsSnapshot& stats) {
  std::string body;
  AppendU64(stats.not_found, &body);
  AppendU32(static_cast<uint32_t>(stats.pools.size()), &body);
  for (const PoolStatsSnapshot& pool : stats.pools) {
    AppendString(pool.pool, &body);
    AppendU64(pool.version, &body);
    AppendU64(pool.refreshes, &body);
    AppendU64(pool.queries, &body);
    AppendU64(pool.errors, &body);
    AppendF64(pool.latency_mean_ms, &body);
    AppendF64(pool.latency_p50_ms, &body);
    AppendF64(pool.latency_p95_ms, &body);
    AppendF64(pool.latency_ewma_ms, &body);
    AppendF64(pool.registered_at, &body);
    AppendF64(pool.refreshed_at, &body);
    AppendF64(pool.last_rebuild_ms, &body);
  }
  return Frame(FrameType::kStatsReply, request_id, std::move(body));
}

Status DecodeStatsReplyBody(const uint8_t* body, size_t len,
                            ServiceStatsSnapshot* out) {
  Reader reader(body, len);
  uint32_t num_pools = 0;
  if (!reader.ReadU64(&out->not_found) || !reader.ReadU32(&num_pools)) {
    return Malformed("stats reply");
  }
  out->pools.clear();
  for (uint32_t i = 0; i < num_pools; ++i) {
    PoolStatsSnapshot pool;
    if (!reader.ReadString(&pool.pool) || !reader.ReadU64(&pool.version) ||
        !reader.ReadU64(&pool.refreshes) || !reader.ReadU64(&pool.queries) ||
        !reader.ReadU64(&pool.errors) ||
        !reader.ReadF64(&pool.latency_mean_ms) ||
        !reader.ReadF64(&pool.latency_p50_ms) ||
        !reader.ReadF64(&pool.latency_p95_ms) ||
        !reader.ReadF64(&pool.latency_ewma_ms) ||
        !reader.ReadF64(&pool.registered_at) ||
        !reader.ReadF64(&pool.refreshed_at) ||
        !reader.ReadF64(&pool.last_rebuild_ms)) {
      return Malformed("stats reply");
    }
    out->pools.push_back(std::move(pool));
  }
  if (!reader.AtEnd()) return Malformed("stats reply");
  return Status::Ok();
}

// ---- Refresh ---------------------------------------------------------------

std::string EncodeRefreshFrame(uint32_t request_id,
                               const WireRefresh& refresh) {
  std::string body;
  AppendString(refresh.pool, &body);
  AppendString(refresh.snapshot_path, &body);
  return Frame(FrameType::kRefresh, request_id, std::move(body));
}

Status DecodeRefreshBody(const uint8_t* body, size_t len, WireRefresh* out) {
  Reader reader(body, len);
  if (!reader.ReadString(&out->pool) ||
      !reader.ReadString(&out->snapshot_path) || !reader.AtEnd()) {
    return Malformed("refresh");
  }
  return Status::Ok();
}

std::string EncodeRefreshReplyFrame(uint32_t request_id,
                                    const WireRefreshReply& reply) {
  std::string body;
  AppendStatus(reply.status, &body);
  if (reply.status.ok()) AppendU64(reply.version, &body);
  return Frame(FrameType::kRefreshReply, request_id, std::move(body));
}

Status DecodeRefreshReplyBody(const uint8_t* body, size_t len,
                              WireRefreshReply* out) {
  Reader reader(body, len);
  if (!reader.ReadStatus(&out->status)) return Malformed("refresh reply");
  if (!out->status.ok()) {
    return reader.AtEnd() ? Status::Ok() : Malformed("refresh reply");
  }
  if (!reader.ReadU64(&out->version) || !reader.AtEnd()) {
    return Malformed("refresh reply");
  }
  return Status::Ok();
}

// ---- Shutdown and protocol errors -----------------------------------------

std::string EncodeShutdownFrame(uint32_t request_id) {
  return Frame(FrameType::kShutdown, request_id, std::string());
}

std::string EncodeShutdownReplyFrame(uint32_t request_id) {
  std::string body;
  AppendStatus(Status::Ok(), &body);
  return Frame(FrameType::kShutdownReply, request_id, std::move(body));
}

std::string EncodeErrorFrame(uint32_t request_id, const Status& error) {
  std::string body;
  AppendStatus(error, &body);
  return Frame(FrameType::kError, request_id, std::move(body));
}

Status DecodeErrorBody(const uint8_t* body, size_t len, Status* out) {
  Reader reader(body, len);
  if (!reader.ReadStatus(out) || !reader.AtEnd()) return Malformed("error");
  return Status::Ok();
}

Status DecodeStatusPrefix(const uint8_t* body, size_t len, Status* out) {
  Reader reader(body, len);
  if (!reader.ReadStatus(out)) {
    return Status::InvalidArgument("frame body carries no status prefix");
  }
  return Status::Ok();
}

}  // namespace kboost
