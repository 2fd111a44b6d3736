#include "client/client.h"

#include <unistd.h>

#include "report/record.h"

namespace msc {
namespace client {

using report::Json;
using runtime::ErrorKind;
using runtime::StageError;

namespace {

[[noreturn]] void
badFrame(const std::string &detail)
{
    throw StageError(ErrorKind::InvalidInput, "client", detail);
}

[[noreturn]] void
streamError(const std::string &detail)
{
    throw StageError(ErrorKind::Io, "client", detail);
}

/** `obj[key]` as a string, or @p dflt when absent / wrong kind
 *  (response decode is lenient: unknown futures must not throw). */
std::string
optString(const Json &obj, const char *key, const std::string &dflt = "")
{
    const Json *v = obj.find(key);
    if (!v || v->kind() != Json::Kind::String)
        return dflt;
    return v->asString();
}

uint64_t
optUInt(const Json &obj, const char *key, uint64_t dflt = 0)
{
    const Json *v = obj.find(key);
    if (!v || v->kind() != Json::Kind::Int)
        return dflt;
    return v->asUInt();
}

bool
optBool(const Json &obj, const char *key, bool dflt = false)
{
    const Json *v = obj.find(key);
    if (!v || v->kind() != Json::Kind::Bool)
        return dflt;
    return v->asBool();
}

template <typename T>
Json
jsonArray(const std::vector<T> &items)
{
    Json a = Json::array();
    for (const T &v : items)
        a.push(v);
    return a;
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// RequestBuilder

RequestBuilder::RequestBuilder(std::string id, const char *kind)
    : _id(std::move(id)), _doc(Json::object())
{
    _doc["id"] = _id;
    _doc["kind"] = kind;
}

RequestBuilder
RequestBuilder::run(std::string id, std::string workload)
{
    return RequestBuilder(std::move(id), "run")
        .set("workload", std::move(workload));
}

RequestBuilder
RequestBuilder::sweep(std::string id)
{
    return RequestBuilder(std::move(id), "sweep");
}

RequestBuilder
RequestBuilder::trace(std::string id, std::string workload)
{
    return RequestBuilder(std::move(id), "trace")
        .set("workload", std::move(workload));
}

RequestBuilder
RequestBuilder::cancel(std::string id, std::string target)
{
    return RequestBuilder(std::move(id), "cancel")
        .set("target", std::move(target));
}

RequestBuilder
RequestBuilder::stats(std::string id)
{
    return RequestBuilder(std::move(id), "stats");
}

RequestBuilder &
RequestBuilder::set(const std::string &key, Json value)
{
    _doc[key] = std::move(value);
    return *this;
}

RequestBuilder &
RequestBuilder::workloads(std::vector<std::string> names)
{
    return set("workloads", jsonArray(names));
}

RequestBuilder &
RequestBuilder::strategies(std::vector<std::string> ids)
{
    return set("strategies", jsonArray(ids));
}

RequestBuilder &
RequestBuilder::pus(std::vector<unsigned> counts)
{
    return set("pus", jsonArray(counts));
}

RequestBuilder &
RequestBuilder::budget(const runtime::ExecBudget &b)
{
    Json obj = Json::object();
    if (b.wallMs)
        obj["timeout_ms"] = uint64_t(b.wallMs);
    if (b.maxFuel)
        obj["max_fuel"] = b.maxFuel;
    if (b.maxSimCycles)
        obj["max_cycles"] = b.maxSimCycles;
    if (b.maxHeapBytes)
        obj["max_heap_bytes"] = b.maxHeapBytes;
    return set("budget", std::move(obj));
}

RequestBuilder &
RequestBuilder::budgetExact(const runtime::ExecBudget &b)
{
    Json obj = Json::object();
    obj["timeout_ms"] = uint64_t(b.wallMs);
    obj["max_fuel"] = b.maxFuel;
    obj["max_cycles"] = b.maxSimCycles;
    obj["max_heap_bytes"] = b.maxHeapBytes;
    return set("budget", std::move(obj));
}

Json
RequestBuilder::toJson() const
{
    return _doc;
}

// ---------------------------------------------------------------------------
// ResponseFrame

ResponseFrame
parseResponseFrame(const std::string &payload)
{
    Json doc;
    try {
        doc = Json::parse(payload);
    } catch (const std::exception &e) {
        badFrame(std::string("response frame is not JSON: ") +
                 e.what());
    }
    if (doc.kind() != Json::Kind::Object)
        badFrame("response frame must be a JSON object");

    ResponseFrame f;
    f.id = optString(doc, "id");
    std::string type = optString(doc, "type");

    if (type == "cell") {
        f.type = ResponseFrame::Type::Cell;
        f.index = optUInt(doc, "index");
        f.total = optUInt(doc, "total");
        const Json *run = doc.find("run");
        if (!run || run->kind() != Json::Kind::Object)
            badFrame("cell frame is missing its \"run\" object");
        f.run = *run;
    } else if (type == "summary") {
        f.type = ResponseFrame::Type::Summary;
        f.status = optString(doc, "status");
        f.exitCode = int(optUInt(doc, "exit_code"));
        f.partial = optBool(doc, "partial");
        f.errors = optUInt(doc, "errors");
        f.runs = optUInt(doc, "runs");
        f.protocolVersion = int(optUInt(doc, "protocol_version"));
        f.via = optString(doc, "via");
        const Json *shards = doc.find("shards");
        if (shards && shards->kind() == Json::Kind::Array)
            for (size_t i = 0; i < shards->size(); ++i)
                f.shards.push_back(shards->at(i).asUInt());
    } else if (type == "result") {
        f.type = ResponseFrame::Type::Result;
        f.resultKind = optString(doc, "kind");
        f.protocolVersion = int(optUInt(doc, "protocol_version"));
    } else if (type == "error") {
        f.type = ResponseFrame::Type::Error;
        const Json *err = doc.find("error");
        if (!err || err->kind() != Json::Kind::Object)
            badFrame("error frame is missing its \"error\" object");
        f.error = report::errorFromJson(*err);
    } else {
        badFrame("unknown response frame type \"" +
                 type.substr(0, 64) + "\"");
    }

    f.raw = std::move(doc);
    return f;
}

// ---------------------------------------------------------------------------
// ClientConn

ClientConn::ClientConn(const Endpoint &ep)
{
    if (ep.kind == Endpoint::Kind::Stdio) {
        _fdIn = 0;
        _fdOut = 1;
        _own = false;
    } else {
        int fd = connectEndpoint(ep);
        _fdIn = fd;
        _fdOut = fd;
        _own = true;
    }
    _fdTransport =
        std::make_unique<serve::FdTransport>(_fdIn, _fdOut);
}

ClientConn::ClientConn(int fd_in, int fd_out, bool own)
    : _fdIn(fd_in), _fdOut(fd_out), _own(own)
{
    _fdTransport =
        std::make_unique<serve::FdTransport>(_fdIn, _fdOut);
}

ClientConn::ClientConn(serve::Transport &t) : _borrowed(&t) {}

ClientConn::~ClientConn()
{
    if (_own) {
        ::close(_fdIn);
        if (_fdOut != _fdIn)
            ::close(_fdOut);
    }
}

serve::Transport &
ClientConn::transport()
{
    return _borrowed ? *_borrowed : *_fdTransport;
}

void
ClientConn::send(const RequestBuilder &req)
{
    sendPayload(req.payload());
}

void
ClientConn::sendPayload(const std::string &payload)
{
    serve::writeFrame(transport(), payload);
}

ResponseFrame
ClientConn::next()
{
    serve::FrameResult fr = serve::readFrame(transport());
    switch (fr.status) {
      case serve::FrameStatus::Ok:
        return parseResponseFrame(fr.payload);
      case serve::FrameStatus::Eof:
        streamError("connection closed by peer");
      case serve::FrameStatus::Truncated:
        streamError("connection closed mid-frame");
      case serve::FrameStatus::Oversize:
        streamError("peer sent an oversize frame (" +
                    std::to_string(fr.declared) + " bytes)");
    }
    streamError("unreachable frame status");
}

ResponseFrame
ClientConn::call(const RequestBuilder &req,
                 const std::function<void(const ResponseFrame &)>
                     &onFrame)
{
    send(req);
    for (;;) {
        ResponseFrame f = next();
        if (f.id != req.id())
            continue;
        if (onFrame)
            onFrame(f);
        if (f.terminal())
            return f;
    }
}

ClientConn::SweepOutcome
ClientConn::collectSweep(const RequestBuilder &req,
                         const std::function<void(
                             const ResponseFrame &)> &onFrame)
{
    SweepOutcome out;
    out.last = call(req, [&](const ResponseFrame &f) {
        if (f.type == ResponseFrame::Type::Cell) {
            if (out.runs.size() < f.total)
                out.runs.resize(f.total);
            if (f.index < out.runs.size())
                out.runs[f.index] = f.run;
        }
        if (onFrame)
            onFrame(f);
    });
    return out;
}

} // namespace client
} // namespace msc
