/**
 * @file
 * NetClient implementation.
 */

#include "net/client.hh"

#include <utility>

#include "net/server.hh" // fromWire
#include "util/telemetry.hh"

namespace heteromap {
namespace net {

NetClient::NetClient(Endpoint endpoint, NetClientOptions options)
    : endpoint_(std::move(endpoint)), options_(options), metrics_([this] {
          return telemetry::CounterReadings{
              {"client.transport_errors", transportErrors()},
          };
      })
{
}

NetClient::~NetClient() = default;

void
NetClient::setClientId(uint64_t client_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    options_.clientId = client_id;
}

void
NetClient::setPriority(bool priority)
{
    std::lock_guard<std::mutex> lock(mutex_);
    options_.priority = priority;
}

void
NetClient::disconnect()
{
    std::lock_guard<std::mutex> lock(mutex_);
    fd_.reset();
}

bool
NetClient::connected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fd_.valid();
}

bool
NetClient::ensureConnected()
{
    if (fd_.valid())
        return true;
    if (!options_.autoReconnect && ever_connected_)
        return false;
    auto connection = connectTo(endpoint_);
    if (!connection.ok())
        return false;
    fd_ = std::move(connection).value();
    ever_connected_ = true;
    return true;
}

Result<FrameHeader>
NetClient::readFrame(std::string &payload)
{
    char header_bytes[kHeaderBytes];
    auto got = recvAll(fd_.get(), header_bytes, kHeaderBytes);
    if (!got.ok())
        return got.error();
    auto header =
        decodeHeader(std::string_view(header_bytes, kHeaderBytes));
    if (!header.ok())
        return header.error();
    payload.resize(header.value().payloadLen);
    if (header.value().payloadLen > 0) {
        got = recvAll(fd_.get(), payload.data(), payload.size());
        if (!got.ok())
            return got.error();
    }
    return header.value();
}

serve::ServeResponse
NetClient::transportError(const std::string &what)
{
    transport_errors_.fetch_add(1);
    serve::ServeResponse response;
    response.status = serve::ServeStatus::Error;
    response.error =
        serve::ServeError{ErrorCode::Unavailable, what};
    return response;
}

serve::ServeResponse
NetClient::protocolError(const std::string &what)
{
    transport_errors_.fetch_add(1);
    serve::ServeResponse response;
    response.status = serve::ServeStatus::Error;
    response.error = serve::ServeError{ErrorCode::Parse, what};
    return response;
}

serve::ServeResponse
NetClient::call(serve::ServeRequest request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ensureConnected())
        return transportError("connect to " + endpoint_.toString() +
                              " failed");

    WireRequest wire;
    wire.clientId = options_.clientId;
    wire.supervised = request.supervised;
    wire.priority = options_.priority;
    wire.deadlineMs = request.deadlineMs;
    wire.sweeps = request.measure.sweeps;
    wire.seed = request.measure.seed;
    const std::string workload_name =
        request.workload ? request.workload->name() : "";
    wire.workload = workload_name;
    wire.graph = request.inputName;

    const uint64_t request_id = next_request_id_++;
    std::string frame;
    encodeRequest(request_id, wire, frame);
    auto sent = sendAll(fd_.get(), frame.data(), frame.size());
    if (!sent.ok()) {
        fd_.reset();
        return transportError("send failed: " +
                              sent.error().message);
    }

    std::string payload;
    auto header = readFrame(payload);
    if (!header.ok()) {
        fd_.reset();
        // recv-level failures (reset, mid-frame EOF) are transient;
        // a decoded-but-malformed header means the stream itself is
        // corrupt — both drop the connection, but only the former is
        // worth retrying.
        if (header.error().code == ErrorCode::Parse)
            return protocolError("bad response frame: " +
                                 header.error().message);
        return transportError("recv failed: " +
                              header.error().message);
    }
    if (header.value().type != FrameType::PredictResponse ||
        header.value().requestId != request_id) {
        fd_.reset();
        return protocolError("response correlation mismatch");
    }
    auto decoded = decodeResponse(payload);
    if (!decoded.ok()) {
        fd_.reset();
        return protocolError("bad response payload: " +
                             decoded.error().message);
    }
    serve::ServeResponse response = fromWire(decoded.value());
    response.requestId = request_id;
    return response;
}

bool
NetClient::ping()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ensureConnected())
        return false;
    const uint64_t request_id = next_request_id_++;
    std::string frame;
    encodePing(request_id, frame);
    auto sent = sendAll(fd_.get(), frame.data(), frame.size());
    if (!sent.ok()) {
        fd_.reset();
        transport_errors_.fetch_add(1);
        return false;
    }
    std::string payload;
    auto header = readFrame(payload);
    if (!header.ok() || header.value().type != FrameType::Pong ||
        header.value().requestId != request_id) {
        fd_.reset();
        transport_errors_.fetch_add(1);
        return false;
    }
    return true;
}

Result<std::string>
NetClient::statusz()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ensureConnected())
        return makeError(ErrorCode::Unavailable, 0, "connect to ",
                         endpoint_.toString(), " failed");
    const uint64_t request_id = next_request_id_++;
    std::string frame;
    encodeStatusz(request_id, frame);
    auto sent = sendAll(fd_.get(), frame.data(), frame.size());
    if (!sent.ok()) {
        fd_.reset();
        transport_errors_.fetch_add(1);
        return sent.error();
    }
    std::string payload;
    auto header = readFrame(payload);
    if (!header.ok()) {
        fd_.reset();
        transport_errors_.fetch_add(1);
        return header.error();
    }
    if (header.value().type != FrameType::StatuszResponse ||
        header.value().requestId != request_id) {
        fd_.reset();
        transport_errors_.fetch_add(1);
        return makeError(ErrorCode::Parse, 0,
                         "statusz correlation mismatch");
    }
    auto json = decodeStatuszResponse(payload);
    if (!json.ok())
        return json.error();
    return std::string(json.value());
}

} // namespace net
} // namespace heteromap
