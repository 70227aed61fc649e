/**
 * @file
 * NetClient: the connect-side half of the binary RPC protocol — a
 * serve::ServeBackend over one connection to a NetServer, so a
 * serve::RetryingClient layered on top runs its full
 * retry/backoff/circuit-breaker ladder over the network exactly as
 * it does in-process.
 *
 * Transport-error contract (the ServeBackend contract): call()
 * NEVER throws. A refused connect, a reset connection, or a
 * mid-frame EOF disconnects, counts "client.transport_errors", and
 * returns ServeStatus::Error with ErrorCode::Unavailable — a
 * transient failure the retry ladder backs off and retries (the
 * next attempt auto-reconnects). A malformed *received* frame (bad
 * magic, decode failure, correlation-id mismatch) also disconnects
 * but returns ErrorCode::Parse, which the ladder treats as terminal.
 * Server-side rejections (unknown graph/workload, malformed request
 * payload) arrive as ordinary decoded responses and pass through
 * untouched.
 *
 * One NetClient is one tenant: its clientId keys the server's
 * admission quota and its priority flag picks the admission lane.
 * Calls are serialized on the connection (one request in flight);
 * concurrent tenants each hold their own NetClient.
 */

#ifndef HETEROMAP_NET_CLIENT_HH
#define HETEROMAP_NET_CLIENT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "net/socket.hh"
#include "net/wire.hh"
#include "serve/retrying_client.hh"
#include "util/telemetry.hh"

namespace heteromap {
namespace net {

/** Per-connection (per-tenant) client tunables. */
struct NetClientOptions {
    /** Admission-quota key presented on every request. */
    uint64_t clientId = 0;

    /** Request the priority admission lane. */
    bool priority = false;

    /** Reconnect transparently on the next call after a failure. */
    bool autoReconnect = true;
};

/** ServeBackend over one binary-RPC connection to a NetServer. */
class NetClient : public serve::ServeBackend
{
  public:
    NetClient(Endpoint endpoint, NetClientOptions options = {});
    ~NetClient() override;

    NetClient(const NetClient &) = delete;
    NetClient &operator=(const NetClient &) = delete;

    /**
     * Serve @p request over the connection. The graph travels as its
     * catalogue name (request.inputName); workload as its registry
     * name. Always returns a response — see the transport-error
     * contract in the file comment.
     */
    serve::ServeResponse call(serve::ServeRequest request) override;

    /** Liveness probe. @return round-trip success. */
    bool ping();

    /** Fetch the server's fleet statusz JSON document. */
    Result<std::string> statusz();

    /**
     * Re-tenant the connection: subsequent calls present
     * @p client_id to admission. Load generators use this to
     * simulate thousands of tenants over a few connections.
     */
    void setClientId(uint64_t client_id);

    /** Switch subsequent calls between the admission lanes. */
    void setPriority(bool priority);

    /** Drop the connection (next call reconnects if enabled). */
    void disconnect();

    bool connected() const;

    /** Transport-level failures observed so far (monotonic). */
    uint64_t transportErrors() const
    {
        return transport_errors_.load();
    }

  private:
    /** Connect if needed. @return false when unreachable. */
    bool ensureConnected();

    /**
     * Read exactly one frame. @return its header with the payload
     * bytes in @p payload; transport and decode failures are
     * recoverable errors (the connection is dropped by the caller).
     */
    Result<FrameHeader> readFrame(std::string &payload);

    /** Build the Unavailable / Parse error response forms. */
    serve::ServeResponse transportError(const std::string &what);
    serve::ServeResponse protocolError(const std::string &what);

    Endpoint endpoint_;
    NetClientOptions options_;

    mutable std::mutex mutex_; //!< serializes the connection
    OwnedFd fd_;
    bool ever_connected_ = false;
    uint64_t next_request_id_ = 1;
    std::atomic<uint64_t> transport_errors_{0};

    /** Reports transport_errors_ as "client.transport_errors". */
    telemetry::ScopedCounterSource metrics_;
};

} // namespace net
} // namespace heteromap

#endif // HETEROMAP_NET_CLIENT_HH
