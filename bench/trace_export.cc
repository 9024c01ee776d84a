/**
 * @file
 * trace_export: convert a LazyGPU binary trace (LZGTRC01, written by
 * `--trace FILE`) into Chrome trace-event JSON, loadable in Perfetto or
 * chrome://tracing.
 *
 * Mapping (one simulated cycle = 1us on the timeline):
 *   WaveBegin/WaveEnd   -> async "b"/"e" spans, one category per CU
 *                          ("wave.cuN"), so each CU gets an occupancy
 *                          lane group
 *   TxBegin/TxEnd       -> async spans "tx.cuN" (memory transactions)
 *   MaskBegin/MaskEnd   -> async spans "mask.cuN" (zero-mask probes)
 *   ZcShortCircuit,
 *   MaskWrite, StoreTx  -> instant events on the CU's thread
 *   CacheDepth          -> "C" counters named after the cache (MSHRs in
 *                          use + queued requests)
 *   EngineCounters      -> "C" counters per event domain, named
 *                          "engine.saN" / "engine.bankN" (queued
 *                          events, pool chunks, active clocked)
 *   StatSample          -> "C" counters for every sampled TimeSeries
 *                          stat, named generically from the meta's
 *                          "seriesTracks" list (the interval sampler's
 *                          CPI-stack buckets and headline counters)
 *
 * Usage: trace_export TRACE.bin [OUT.json]   (default OUT: TRACE.json)
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/json_reader.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

using namespace lazygpu;

namespace
{

struct Meta
{
    std::string raw = "{}";
    std::string mode = "unknown";
    unsigned cusPerSa = 1;
    unsigned numShaderArrays = 1;
    std::vector<std::string> cacheTracks;
    std::vector<std::string> seriesTracks;
};

Meta
parseMeta(const std::string &raw)
{
    Meta m;
    m.raw = raw;
    JsonValue doc;
    std::string err;
    if (!parseJson(raw, doc, &err)) {
        warn("trace meta is not valid JSON (%s); using defaults",
             err.c_str());
        m.raw = "{}";
        return m;
    }
    if (const JsonValue *v = doc.find("mode"))
        m.mode = v->asString();
    if (const JsonValue *v = doc.find("cusPerSa"))
        m.cusPerSa = static_cast<unsigned>(v->asU64());
    if (m.cusPerSa == 0)
        m.cusPerSa = 1;
    if (const JsonValue *v = doc.find("numShaderArrays"))
        m.numShaderArrays = static_cast<unsigned>(v->asU64());
    if (const JsonValue *v = doc.find("cacheTracks")) {
        for (const JsonValue &e : v->elems)
            m.cacheTracks.push_back(e.kind == JsonValue::Kind::String
                                        ? e.text
                                        : "cache");
    }
    if (const JsonValue *v = doc.find("seriesTracks")) {
        for (const JsonValue &e : v->elems)
            m.seriesTracks.push_back(e.kind == JsonValue::Kind::String
                                         ? e.text
                                         : "series");
    }
    return m;
}

/** Comma-separated event emission into the traceEvents array. */
struct EventWriter
{
    std::FILE *out;
    bool first = true;

    void
    begin(const char *ph, std::uint64_t ts)
    {
        std::fprintf(out, "%s\n{\"ph\":\"%s\",\"ts\":%llu",
                     first ? "" : ",", ph,
                     static_cast<unsigned long long>(ts));
        first = false;
    }

    void
    end()
    {
        std::fputc('}', out);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 3) {
        std::fprintf(stderr,
                     "usage: trace_export TRACE.bin [OUT.json]\n");
        return 2;
    }
    const std::string in_path = argv[1];
    std::string out_path = argc == 3 ? argv[2] : in_path;
    if (argc < 3) {
        const std::size_t dot = out_path.rfind('.');
        out_path = (dot == std::string::npos ? out_path
                                             : out_path.substr(0, dot)) +
                   ".json";
    }

    std::FILE *in = std::fopen(in_path.c_str(), "rb");
    if (!in) {
        std::fprintf(stderr, "trace_export: cannot open %s\n",
                     in_path.c_str());
        return 1;
    }

    TraceFileHeader hdr{};
    if (std::fread(&hdr, sizeof(hdr), 1, in) != 1 ||
        std::memcmp(hdr.magic, "LZGTRC01", sizeof(hdr.magic)) != 0) {
        std::fprintf(stderr, "trace_export: %s is not a LazyGPU trace\n",
                     in_path.c_str());
        std::fclose(in);
        return 1;
    }
    if (hdr.version != TraceSink::fileVersion ||
        hdr.recordBytes != sizeof(TraceRecord)) {
        std::fprintf(stderr,
                     "trace_export: unsupported trace version %u "
                     "(record size %u)\n",
                     hdr.version, hdr.recordBytes);
        std::fclose(in);
        return 1;
    }

    std::string raw_meta(hdr.metaBytes, '\0');
    if (hdr.metaBytes &&
        std::fread(raw_meta.data(), 1, raw_meta.size(), in) !=
            raw_meta.size()) {
        std::fprintf(stderr, "trace_export: truncated meta blob\n");
        std::fclose(in);
        return 1;
    }
    const Meta meta = parseMeta(raw_meta);

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "trace_export: cannot write %s\n",
                     out_path.c_str());
        std::fclose(in);
        return 1;
    }

    // One simulated cycle is mapped to 1us of timeline.
    std::fprintf(out,
                 "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                 "\"traceEvents\":[",
                 meta.raw.c_str());

    EventWriter w{out};

    // Process/thread naming so Perfetto shows meaningful lanes. CU
    // threads are named lazily as CUs first appear in the stream; the
    // fixed processes are named up front.
    struct
    {
        int pid;
        const char *name;
    } procs[] = {{1, "gpu"}, {2, "mem"}, {3, "engine"}};
    for (const auto &p : procs) {
        w.begin("M", 0);
        std::fprintf(out,
                     ",\"pid\":%d,\"name\":\"process_name\","
                     "\"args\":{\"name\":\"%s\"}",
                     p.pid, p.name);
        w.end();
    }

    std::vector<bool> cu_named;
    auto nameCu = [&](unsigned cu) {
        if (cu < cu_named.size() && cu_named[cu])
            return;
        if (cu >= cu_named.size())
            cu_named.resize(cu + 1, false);
        cu_named[cu] = true;
        w.begin("M", 0);
        std::fprintf(out,
                     ",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
                     "\"args\":{\"name\":\"sa%u.cu%u\"}",
                     cu, cu / meta.cusPerSa, cu % meta.cusPerSa);
        w.end();
    };

    auto asyncSpan = [&](const char *ph, const char *cat,
                         const TraceRecord &r, const char *arg_key) {
        nameCu(r.track);
        w.begin(ph, r.tick);
        std::fprintf(out,
                     ",\"pid\":1,\"tid\":%u,\"cat\":\"%s.cu%u\","
                     "\"id\":%llu,\"name\":\"%s.cu%u\","
                     "\"args\":{\"%s\":%llu}",
                     r.track, cat, r.track,
                     static_cast<unsigned long long>(r.id), cat,
                     r.track, arg_key,
                     static_cast<unsigned long long>(r.arg));
        w.end();
    };

    auto instant = [&](const char *name, const TraceRecord &r) {
        nameCu(r.track);
        w.begin("i", r.tick);
        std::fprintf(out,
                     ",\"pid\":1,\"tid\":%u,\"s\":\"t\","
                     "\"name\":\"%s\",\"args\":{\"addr\":%llu}",
                     r.track, name,
                     static_cast<unsigned long long>(r.arg));
        w.end();
    };

    std::uint64_t n_records = 0, n_skipped = 0;
    TraceRecord rec;
    while (std::fread(&rec, sizeof(rec), 1, in) == 1) {
        ++n_records;
        switch (static_cast<TraceKind>(rec.kind)) {
        case TraceKind::WaveBegin:
            asyncSpan("b", "wave", rec, "wid");
            break;
        case TraceKind::WaveEnd:
            asyncSpan("e", "wave", rec, "wid");
            break;
        case TraceKind::TxBegin:
            asyncSpan("b", "tx", rec, "addr");
            break;
        case TraceKind::TxEnd:
            asyncSpan("e", "tx", rec, "addr");
            break;
        case TraceKind::MaskBegin:
            asyncSpan("b", "mask", rec, "addr");
            break;
        case TraceKind::MaskEnd:
            asyncSpan("e", "mask", rec, "addr");
            break;
        case TraceKind::ZcShortCircuit:
            instant("zc_short_circuit", rec);
            break;
        case TraceKind::MaskWrite:
            instant("mask_write", rec);
            break;
        case TraceKind::StoreTx:
            instant(rec.flags & 1 ? "store_tx_zero_skipped"
                                  : "store_tx",
                    rec);
            break;
        case TraceKind::CacheDepth: {
            const std::string name =
                rec.track < meta.cacheTracks.size()
                    ? meta.cacheTracks[rec.track]
                    : "cache" + std::to_string(rec.track);
            w.begin("C", rec.tick);
            std::fprintf(out,
                         ",\"pid\":2,\"name\":\"%s\","
                         "\"args\":{\"mshrs\":%llu,\"queued\":%llu}",
                         name.c_str(),
                         static_cast<unsigned long long>(rec.id),
                         static_cast<unsigned long long>(rec.arg));
            w.end();
            break;
        }
        case TraceKind::StatSample: {
            // One counter track per sampled series; names come from the
            // meta blob, so this stays generic as the sampler grows.
            const std::string name =
                rec.track < meta.seriesTracks.size()
                    ? meta.seriesTracks[rec.track]
                    : "series" + std::to_string(rec.track);
            w.begin("C", rec.tick);
            std::fprintf(out,
                         ",\"pid\":1,\"name\":\"%s\","
                         "\"args\":{\"value\":%llu}",
                         name.c_str(),
                         static_cast<unsigned long long>(rec.arg));
            w.end();
            break;
        }
        case TraceKind::EngineCounters: {
            // Tracks: SA domains first, then bank domains.
            const std::string name =
                rec.track < meta.numShaderArrays
                    ? "engine.sa" + std::to_string(rec.track)
                    : "engine.bank" +
                          std::to_string(rec.track - meta.numShaderArrays);
            w.begin("C", rec.tick);
            std::fprintf(
                out,
                ",\"pid\":3,\"name\":\"%s\","
                "\"args\":{\"queued_events\":%llu,"
                "\"pool_chunks\":%llu,\"active_clocked\":%llu}",
                name.c_str(), static_cast<unsigned long long>(rec.id),
                static_cast<unsigned long long>(rec.arg >> 32),
                static_cast<unsigned long long>(rec.arg &
                                                0xffffffffu));
            w.end();
            break;
        }
        default:
            ++n_skipped;
            break;
        }
    }
    std::fclose(in);

    std::fprintf(out, "\n]}\n");
    const bool ok = std::fclose(out) == 0;
    if (!ok) {
        std::fprintf(stderr, "trace_export: write to %s failed\n",
                     out_path.c_str());
        return 1;
    }

    std::fprintf(stderr,
                 "trace_export: %s -> %s (%llu records, %llu of "
                 "unknown kind skipped, mode %s)\n",
                 in_path.c_str(), out_path.c_str(),
                 static_cast<unsigned long long>(n_records),
                 static_cast<unsigned long long>(n_skipped),
                 meta.mode.c_str());
    return 0;
}
