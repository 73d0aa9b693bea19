// RemoteBackend (declared in cover_backend.h): the wire client of one
// CoverServer — socket, frames, and reconnect-and-reopen in one class.
#include "src/net/cover_backend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "src/net/socket_io.h"

namespace cfdprop {
namespace net {

namespace {

/// One bounded connect attempt: non-blocking connect + poll, so a peer
/// that swallows SYNs can hold us for at most `budget` instead of the
/// kernel's minutes-long retry schedule. Returns 0 on success, an errno
/// on failure, and ETIMEDOUT when the budget elapsed first.
int ConnectWithBudget(int fd, const sockaddr_in& addr,
                      std::chrono::milliseconds budget) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int err = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      err = errno;
    } else {
      struct pollfd pfd {fd, POLLOUT, 0};
      const int n = ::poll(&pfd, 1, static_cast<int>(budget.count()));
      if (n == 0) {
        err = ETIMEDOUT;
      } else if (n < 0) {
        err = errno;
      } else {
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      }
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return err;
}

}  // namespace

RemoteBackend::RemoteBackend(CoverClientOptions options)
    : options_(std::move(options)) {}

RemoteBackend::~RemoteBackend() { CloseConnection(); }

Status RemoteBackend::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  CFDPROP_RETURN_NOT_OK(ConnectSocket());
  // Replay this backend's catalog opens so the conversation resumes
  // where the dropped one left off; the server's same-text re-open is
  // idempotent, so a catalog that survived server-side is a no-op.
  for (const auto& [tenant, spec_text] : opened_) {
    auto reply = RoundTrip(
        FrameType::kOpenCatalog,
        EncodeOpenCatalogRequest(OpenCatalogRequest{tenant, spec_text}),
        FrameType::kOpenCatalogReply);
    Status reopened = reply.ok() ? DecodeOpenCatalogReply(*reply).status()
                                 : reply.status();
    if (!reopened.ok()) {
      CloseConnection();
      return reopened;
    }
  }
  return Status::OK();
}

Status RemoteBackend::ConnectSocket() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad server address '" + options_.host +
                                   "'");
  }
  using Clock = std::chrono::steady_clock;
  const bool bounded = options_.connect_timeout.count() > 0;
  const Clock::time_point deadline = Clock::now() + options_.connect_timeout;
  auto remaining = [&]() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                 Clock::now());
  };
  std::string last_error = "no attempts made";
  const size_t attempts = std::max<size_t>(1, options_.connect_attempts);
  for (size_t i = 0; i < attempts; ++i) {
    if (i > 0) {
      // The sleep counts against the overall deadline too — a retry
      // loop that only bounded the connects could still sleep forever.
      auto delay = options_.retry_delay;
      if (bounded) {
        const auto left = remaining();
        if (left.count() <= 0) break;
        delay = std::min(delay, left);
      }
      std::this_thread::sleep_for(delay);
    }
    if (bounded && remaining().count() <= 0) break;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    int err = 0;
    if (bounded) {
      err = ConnectWithBudget(fd, addr, std::max(remaining(),
                                                 std::chrono::milliseconds(1)));
    } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
      err = errno;
    }
    if (err == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Status armed = SetIoDeadline(fd, options_.io_timeout);
      if (!armed.ok()) {
        ::close(fd);
        return armed;
      }
      fd_ = fd;
      return Status::OK();
    }
    last_error = std::string("connect: ") + std::strerror(err);
    ::close(fd);
  }
  const std::string target =
      options_.host + ":" + std::to_string(options_.port);
  if (bounded && remaining().count() <= 0) {
    return Status::DeadlineExceeded(
        "cannot reach " + target + " within " +
        std::to_string(options_.connect_timeout.count()) + " ms (" +
        last_error + ")");
  }
  return Status::NotFound("cannot reach " + target + " after " +
                          std::to_string(attempts) + " attempts (" +
                          last_error + ")");
}

void RemoteBackend::CloseConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> RemoteBackend::Call(FrameType request,
                                        std::string_view payload,
                                        FrameType expected_reply) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  return RoundTrip(request, payload, expected_reply);
}

Result<std::string> RemoteBackend::RoundTrip(FrameType request,
                                             std::string_view payload,
                                             FrameType expected_reply) {
  if (payload.size() > kMaxFramePayload) {
    // The server would reject the header anyway; fail with a typed
    // error before shipping megabytes it will never parse.
    return Status::ResourceExhausted(
        "request payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame bound");
  }
  CFDPROP_RETURN_NOT_OK(WriteAll(fd_, EncodeFrame(request, payload)));
  auto reply = ReadFrame(fd_);
  if (!reply.ok()) {
    // A failed read leaves the stream unsynchronized — drop the
    // connection so the next call reconnects instead of misparsing.
    CloseConnection();
    return reply.status();
  }
  if (reply->first != expected_reply) {
    CloseConnection();
    return Status::InvalidArgument(
        "wire frame rejected: unexpected reply type " +
        std::to_string(static_cast<int>(reply->first)));
  }
  return std::move(reply->second);
}

Result<OpenCatalogReplyInfo> RemoteBackend::OpenCatalog(
    const std::string& tenant, const std::string& spec_text) {
  OpenCatalogRequest request{tenant, spec_text};
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Call(FrameType::kOpenCatalog, EncodeOpenCatalogRequest(request),
           FrameType::kOpenCatalogReply));
  CFDPROP_ASSIGN_OR_RETURN(OpenCatalogReplyInfo info,
                           DecodeOpenCatalogReply(payload));
  opened_[tenant] = spec_text;
  return info;
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool) {
  obs::Tracer* tracer = obs::ProcessTracer();
  if (tracer == nullptr) {
    return SubmitBatchesTraced(tenant, batches, pool, {}, /*edge=*/false);
  }
  // No caller-started trace: this backend IS the edge.
  return SubmitBatchesTraced(tenant, batches, pool, tracer->StartTrace(),
                             /*edge=*/true);
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
    const obs::TraceContext& trace) {
  return SubmitBatchesTraced(tenant, batches, pool, trace, /*edge=*/false);
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitBatchesTraced(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
    const obs::TraceContext& trace, bool edge) {
  // Connect (and replay opens) outside the rpc span: the span times the
  // submit's own round trip, nothing else.
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  obs::Tracer* tracer = obs::ProcessTracer();
  uint64_t span_id = 0;
  uint64_t start_us = 0;
  const bool traced = tracer != nullptr && trace.trace_id != 0;
  const bool timed =
      traced && (trace.sampled || (edge && tracer->slow_enabled()));
  SubmitBatchRequest request;
  request.tenant = tenant;
  request.batches = batches;
  if (traced && trace.sampled) {
    // The rpc span id crosses the wire as the parent of every span the
    // server records for this request.
    span_id = tracer->NewSpanId();
    request.trace.trace_id = trace.trace_id;
    request.trace.parent_span_id = span_id;
    request.trace.sampled = true;
  }
  if (timed) {
    if (span_id == 0) span_id = tracer->NewSpanId();
    start_us = tracer->NowUs();
  }
  auto payload =
      RoundTrip(FrameType::kSubmitBatch, EncodeSubmitBatchRequest(request),
                FrameType::kSubmitBatchReply);
  if (timed) {
    const uint64_t dur_us = tracer->NowUs() - start_us;
    if (edge) {
      tracer->RecordEdge(trace, span_id, "rpc", start_us, dur_us, tenant);
    } else if (trace.sampled) {
      tracer->Record(trace, span_id, trace.parent_span_id, "rpc", start_us,
                     dur_us, tenant);
    }
  }
  CFDPROP_RETURN_NOT_OK(payload.status());
  CFDPROP_ASSIGN_OR_RETURN(std::vector<BatchResult> decoded,
                           DecodeSubmitBatchReply(*payload, pool));
  if (decoded.size() != batches.size()) {
    return Status::Internal(
        "server answered " + std::to_string(decoded.size()) +
        " batches for a " + std::to_string(batches.size()) + "-batch submit");
  }
  return decoded;
}

Result<WireServiceStats> RemoteBackend::Stats() {
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Call(FrameType::kStats, "", FrameType::kStatsReply));
  return DecodeStatsReply(payload);
}

Result<std::string> RemoteBackend::Metrics() {
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Call(FrameType::kMetrics, "", FrameType::kMetricsReply));
  return DecodeMetricsReply(payload);
}

Result<std::vector<obs::SpanRecord>> RemoteBackend::TraceDump() {
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Call(FrameType::kTraceDump, "", FrameType::kTraceDumpReply));
  return DecodeTraceDumpReply(payload);
}

Status RemoteBackend::DropCatalog(const std::string& tenant) {
  auto payload = Call(FrameType::kDropCatalog, EncodeStringRequest(tenant),
                      FrameType::kDropCatalogReply);
  if (!payload.ok()) return payload.status();
  Status dropped = DecodeStatusReply(*payload);
  if (dropped.ok()) opened_.erase(tenant);
  return dropped;
}

Result<std::string> RemoteBackend::FetchSnapshot(const std::string& tenant) {
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Call(FrameType::kFetchSnapshot, EncodeStringRequest(tenant),
           FrameType::kFetchSnapshotReply));
  return DecodeFetchSnapshotReply(payload);
}

Result<OpenCatalogReplyInfo> RemoteBackend::OpenFromSnapshot(
    const std::string& tenant, const std::string& spec_text,
    std::string_view snapshot) {
  OpenFromSnapshotRequest request;
  request.tenant = tenant;
  request.spec_text = spec_text;
  request.snapshot = std::string(snapshot);
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Call(FrameType::kOpenFromSnapshot,
           EncodeOpenFromSnapshotRequest(request),
           FrameType::kOpenFromSnapshotReply));
  CFDPROP_ASSIGN_OR_RETURN(OpenCatalogReplyInfo info,
                           DecodeOpenCatalogReply(payload));
  opened_[tenant] = spec_text;
  return info;
}

Status RemoteBackend::Shutdown() {
  auto payload = Call(FrameType::kShutdown, "", FrameType::kShutdownReply);
  if (!payload.ok()) return payload.status();
  return DecodeStatusReply(*payload);
}

}  // namespace net
}  // namespace cfdprop
