// CoverBackend: the one serving surface in front of a cover catalog,
// whether it lives in this process or behind a socket.
//
// OpenCatalog / SubmitBatch(es) / Stats / Metrics / DropCatalog, all
// returning typed Result<>s whose StatusCodes survive the wire, so a
// caller programs against one surface and an injection decides where
// the covers come from.
//
// Three implementations:
//   * InProcBackend  — wraps a CatalogService (plus the spec/view-name
//     resolution a CoverServer would do), no sockets at all;
//   * RemoteBackend  — the blocking wire client of one CoverServer: one
//     TCP connection, strict request/reply framing, with reconnect: a
//     dropped connection (socket deadline, server restart) is
//     re-established on the next call and the backend *re-opens every
//     catalog it opened*, so open-catalog state survives the drop
//     (CoverServer's same-text re-open is idempotent);
//   * CoverRouter (src/net/cover_router.h) — consistent-hashes tenants
//     across N RemoteBackend shards.
//
// Semantics are aligned so the implementations are byte-comparable:
// a multi-batch SubmitBatches decides admission atomically (slot i
// answers batches[i], rejections are typed ResourceExhausted in the
// slot's status), an unknown view fails its batch alone with NotFound,
// an unknown tenant fails the whole call. Decoded covers intern into
// the caller-supplied pool on the wire paths; the in-process path
// serves them straight from the tenant's engine.
//
// Thread-safety: RemoteBackend is one conversation — use one per
// worker thread (connections are cheap; the server threads per
// connection). InProcBackend IS safe for concurrent callers: the
// service is thread-safe and the backend's own spec registry takes a
// lock, so the workload runner shares a single instance across its
// workers.

#ifndef CFDPROP_NET_COVER_BACKEND_H_
#define CFDPROP_NET_COVER_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"
#include "src/net/wire_protocol.h"
#include "src/parser/parser.h"
#include "src/service/batch_result.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace net {

struct CoverClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Connect() retries: scripts and CI start `listen` in the background
  /// and race the client against the server's bind, so the client polls
  /// rather than demanding the server be up first.
  size_t connect_attempts = 50;
  std::chrono::milliseconds retry_delay{100};
  /// Overall Connect() deadline spanning every attempt *and* the sleeps
  /// between them. 0 = no deadline: the attempts-only bound (which,
  /// with a long retry_delay, has no wall-clock ceiling at all). When
  /// armed, Connect() returns typed DeadlineExceeded once the budget
  /// elapses, and each in-flight ::connect is bounded by the remaining
  /// budget (non-blocking connect + poll).
  std::chrono::milliseconds connect_timeout{0};
  /// Per-call socket send/recv deadline (SO_RCVTIMEO/SO_SNDTIMEO) armed
  /// after a successful connect. 0 = fully blocking. When an I/O
  /// deadline fires mid-call the call returns typed DeadlineExceeded
  /// and the connection is dropped (the stream has no resync point), so
  /// the next call reconnects.
  std::chrono::milliseconds io_timeout{0};
};

class CoverBackend {
 public:
  virtual ~CoverBackend() = default;

  /// Opens a tenant from spec text; the spec's source CFDs become Σ 0
  /// and submit-batch view names resolve against its declared views.
  virtual Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) = 0;

  /// Pipelined burst: slot i answers batches[i]; admission for the
  /// whole burst is decided atomically, so the admit/reject pattern is
  /// deterministic. Wire-crossing covers intern constants into `pool`.
  virtual Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) = 0;

  /// Single-batch convenience over SubmitBatches.
  Result<BatchResult> SubmitBatch(const std::string& tenant,
                                  const std::vector<std::string>& views,
                                  ValuePool& pool);

  virtual Result<WireServiceStats> Stats() = 0;

  /// The full Prometheus-style text exposition.
  virtual Result<std::string> Metrics() = 0;

  virtual Status DropCatalog(const std::string& tenant) = 0;
};

/// CoverBackend over an in-process CatalogService: parses specs,
/// resolves view names and folds the service's futures into
/// BatchResults — everything a CoverServer does per frame, minus the
/// frames. The service must outlive the backend. Several InProcBackend
/// instances may share one service (each keeps only resolution state).
class InProcBackend : public CoverBackend {
 public:
  explicit InProcBackend(CatalogService& service) : service_(service) {}

  Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) override;

  /// The hook for specs that exist only programmatically (the workload
  /// generators build Spec structs, never text).
  Result<OpenCatalogReplyInfo> OpenParsedSpec(const std::string& tenant,
                                              Spec spec);

  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) override;

  Result<WireServiceStats> Stats() override;
  Result<std::string> Metrics() override;
  Status DropCatalog(const std::string& tenant) override;

  CatalogService& service() { return service_; }

 private:
  CatalogService& service_;
  std::mutex specs_mu_;
  /// Tenant -> parsed spec for view-name resolution (the InProc
  /// counterpart of CoverServer's spec registry). Guarded by specs_mu_.
  std::map<std::string, std::shared_ptr<const Spec>> specs_;
};

/// CoverBackend over one CoverServer connection. Lazily connects on
/// first use, and on every call re-establishes a dropped connection
/// first — re-opening every catalog this backend opened (the server's
/// same-text re-open is idempotent), so a DeadlineExceeded drop or a
/// server restart never silently loses open-catalog state.
///
/// Covers come back in the snapshot string-table encoding and are
/// re-interned into the caller's ValuePool, so the client needs no
/// knowledge of the server's pool. With a process tracer installed the
/// two-argument SubmitBatches is the trace edge: it starts a trace,
/// records the rpc span and applies slow-request capture to the round
/// trip.
class RemoteBackend : public CoverBackend {
 public:
  explicit RemoteBackend(CoverClientOptions options);
  ~RemoteBackend() override;

  RemoteBackend(const RemoteBackend&) = delete;
  RemoteBackend& operator=(const RemoteBackend&) = delete;

  /// Ships spec text for the server to parse and open as a tenant.
  Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) override;

  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) override;

  /// Submit under a caller-started trace (the router's edge) — the rpc
  /// span parents to `trace.parent_span_id` and the slow-capture
  /// decision stays with the caller.
  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
      const obs::TraceContext& trace);

  Result<WireServiceStats> Stats() override;
  Result<std::string> Metrics() override;
  Status DropCatalog(const std::string& tenant) override;

  /// Reads the server process's span rings back (main + slow), in ring
  /// append order — the raw material for a stitched cross-process tree.
  Result<std::vector<obs::SpanRecord>> TraceDump();

  /// Migration, step 1: the server drains the tenant's in-service
  /// batches, then ships its cover cache as .ccsnap snapshot bytes.
  Result<std::string> FetchSnapshot(const std::string& tenant);

  /// Migration, step 2 (against the *target* server): open the tenant
  /// from spec text and warm-start its cache from `snapshot`. The reply
  /// reports the warm-start's restored/rejected line counts.
  Result<OpenCatalogReplyInfo> OpenFromSnapshot(const std::string& tenant,
                                                const std::string& spec_text,
                                                std::string_view snapshot);

  /// Asks the server process to wind down (it stops accepting and its
  /// owner exits); the reply confirms receipt.
  Status Shutdown();

  /// Connects now (otherwise the first call connects lazily), retrying
  /// per the options. NotFound when every attempt fails,
  /// DeadlineExceeded when connect_timeout elapses first.
  Status Connect() { return EnsureConnected(); }

  /// Drops the TCP connection without telling the server — the test
  /// hook for the reconnect path (a real drop comes from a socket
  /// deadline or a dying link). The next call reconnects and replays
  /// this backend's catalog opens.
  void CloseConnection();

  bool connected() const { return fd_ >= 0; }

 private:
  /// Connect + replay the remembered catalog opens when the connection
  /// is down; no-op while it is up.
  Status EnsureConnected();
  /// The retrying socket connect behind EnsureConnected.
  Status ConnectSocket();
  /// EnsureConnected, then one frame out and one reply back, checking
  /// the reply type. A failed read drops the connection (the stream has
  /// no resync point), so the next call reconnects.
  Result<std::string> Call(FrameType request, std::string_view payload,
                           FrameType expected_reply);
  /// The frame exchange itself, on an open connection.
  Result<std::string> RoundTrip(FrameType request, std::string_view payload,
                                FrameType expected_reply);
  /// Shared submit body; `edge` marks this backend as the trace's edge
  /// (slow capture applies to the round trip here, not at a caller).
  Result<std::vector<BatchResult>> SubmitBatchesTraced(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
      const obs::TraceContext& trace, bool edge);

  CoverClientOptions options_;
  int fd_ = -1;
  /// Tenant -> spec text this backend opened, replayed on reconnect.
  std::map<std::string, std::string> opened_;
};

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_COVER_BACKEND_H_
