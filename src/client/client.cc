#include "client/client.h"

#include <unistd.h>

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

Json
stringArray(const std::vector<std::string> &items)
{
    Json a = Json::array();
    for (const auto &s : items)
        a.push(s);
    return a;
}

Json
uintArray(const std::vector<unsigned> &items)
{
    Json a = Json::array();
    for (unsigned v : items)
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
    RequestBuilder b(std::move(id), "run");
    b._doc["workload"] = std::move(workload);
    return b;
}

RequestBuilder
RequestBuilder::sweep(std::string id)
{
    return RequestBuilder(std::move(id), "sweep");
}

RequestBuilder
RequestBuilder::trace(std::string id, std::string workload)
{
    RequestBuilder b(std::move(id), "trace");
    b._doc["workload"] = std::move(workload);
    return b;
}

RequestBuilder
RequestBuilder::cancel(std::string id, std::string target)
{
    RequestBuilder b(std::move(id), "cancel");
    b._doc["target"] = std::move(target);
    return b;
}

RequestBuilder
RequestBuilder::stats(std::string id)
{
    return RequestBuilder(std::move(id), "stats");
}

RequestBuilder &
RequestBuilder::workloads(std::vector<std::string> names)
{
    _doc["workloads"] = stringArray(names);
    return *this;
}

RequestBuilder &
RequestBuilder::strategies(std::vector<std::string> ids)
{
    _doc["strategies"] = stringArray(ids);
    return *this;
}

RequestBuilder &
RequestBuilder::pus(std::vector<unsigned> counts)
{
    _doc["pus"] = uintArray(counts);
    return *this;
}

RequestBuilder &
RequestBuilder::strategy(const std::string &id)
{
    _doc["strategy"] = id;
    return *this;
}

RequestBuilder &
RequestBuilder::pusCount(unsigned n)
{
    _doc["pus"] = n;
    return *this;
}

RequestBuilder &
RequestBuilder::smallScale(bool small)
{
    _doc["scale"] = small ? "small" : "full";
    return *this;
}

RequestBuilder &
RequestBuilder::insts(uint64_t n)
{
    _doc["insts"] = n;
    return *this;
}

RequestBuilder &
RequestBuilder::targets(unsigned n)
{
    _doc["targets"] = n;
    return *this;
}

RequestBuilder &
RequestBuilder::inOrder(bool in_order)
{
    _doc["in_order"] = in_order;
    return *this;
}

RequestBuilder &
RequestBuilder::sizeHeuristic(bool on)
{
    _doc["size"] = on;
    return *this;
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
    _doc["budget"] = std::move(obj);
    return *this;
}

RequestBuilder &
RequestBuilder::budgetExact(const runtime::ExecBudget &b)
{
    Json obj = Json::object();
    obj["timeout_ms"] = uint64_t(b.wallMs);
    obj["max_fuel"] = b.maxFuel;
    obj["max_cycles"] = b.maxSimCycles;
    obj["max_heap_bytes"] = b.maxHeapBytes;
    _doc["budget"] = std::move(obj);
    return *this;
}

RequestBuilder &
RequestBuilder::includeTrace(bool on)
{
    _doc["include_trace"] = on;
    return *this;
}

RequestBuilder &
RequestBuilder::format(const std::string &fmt)
{
    _doc["format"] = fmt;
    return *this;
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
        runtime::errorKindFromId(optString(*err, "kind"),
                                 f.error.kind);
        f.error.stage = optString(*err, "stage");
        f.error.workload = optString(*err, "workload");
        f.error.detail = optString(*err, "detail");
        f.error.limit = optUInt(*err, "limit");
        f.error.used = optUInt(*err, "used");
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
