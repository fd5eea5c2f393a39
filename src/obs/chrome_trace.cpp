#include "obs/chrome_trace.h"

#include <charconv>
#include <set>
#include <string_view>

namespace delta::obs {

namespace {

// Argument labels for the two payload slots, per kind. nullptr = omit.
struct ArgNames {
  const char* a0 = nullptr;
  const char* a1 = nullptr;
};

ArgNames arg_names(EventKind kind) {
  switch (kind) {
    case EventKind::kBusTransfer: return {"words", "wait_cycles"};
    case EventKind::kLockAcquire: return {"lock", "contended"};
    case EventKind::kLockRelease: return {"lock", nullptr};
    case EventKind::kLockSpin: return {"lock", "polls"};
    case EventKind::kDeadlockRequest: return {"resource", "unit_cycles"};
    case EventKind::kDeadlockRelease: return {"resource", "unit_cycles"};
    case EventKind::kAlloc: return {"bytes", "shared"};
    case EventKind::kFree: return {"addr", nullptr};
    case EventKind::kContextSwitch: return {"task", nullptr};
    case EventKind::kKernelService: return {"task", nullptr};
    case EventKind::kWaitFor: return {};  // decoded args, special-cased
  }
  return {};
}

// Process/thread names come from fixed vocabulary plus config names; the
// escaping here only has to keep the document well-formed. Unlike
// exp::JsonWriter, every control byte (newline included) becomes \u00XX:
// the bytes of this document are pinned as they are.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending run of bytes kept as-is
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned int u = static_cast<unsigned char>(s[i]);
    if (u >= 0x20 && u < 0x7f && u != '"' && u != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    if (u == '"' || u == '\\') {
      out += '\\';
      out += static_cast<char>(u);
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
      out.append(esc, sizeof esc);
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

const char* event_category(EventKind kind) {
  switch (kind) {
    case EventKind::kBusTransfer: return "bus";
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease:
    case EventKind::kLockSpin: return "lock";
    case EventKind::kDeadlockRequest:
    case EventKind::kDeadlockRelease: return "deadlock";
    case EventKind::kAlloc:
    case EventKind::kFree: return "mem";
    case EventKind::kContextSwitch: return "sched";
    case EventKind::kKernelService: return "kernel";
    case EventKind::kWaitFor: return "dep";
  }
  return "other";
}

std::string chrome_trace_json(const std::vector<ProcessTrace>& processes) {
  std::string out;
  out += "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
    out += '\n';
  };
  for (const ProcessTrace& p : processes) {
    // Metadata: name the process after the run so sweep traces are
    // navigable, and surface ring overflow where a human will see it.
    sep();
    out += "{\"ph\": \"M\", \"pid\": ";
    append_u64(out, p.pid);
    out += ", \"name\": \"process_name\", \"args\": {\"name\": \"";
    append_escaped(out, p.name);
    if (p.dropped != 0) {
      out += " (dropped ";
      append_u64(out, p.dropped);
      out += " events)";
    }
    out += "\"}}";
    if (p.dropped != 0) {
      sep();
      out += "{\"ph\": \"M\", \"pid\": ";
      append_u64(out, p.pid);
      out += ", \"name\": \"process_labels\", \"args\": {\"labels\": "
             "\"dropped ";
      append_u64(out, p.dropped);
      out += " events\"}}";
    }
    // Thread names: the PEs plus the hardware units' bus-master port.
    std::set<std::uint16_t> tids;
    for (std::size_t pe = 0; pe < p.pe_count; ++pe)
      tids.insert(static_cast<std::uint16_t>(pe));
    if (p.pe_count != 0)  // the hardware units' bus-master port
      tids.insert(static_cast<std::uint16_t>(p.pe_count));
    for (const Event& e : p.events) tids.insert(e.pe);
    for (const FlowArrow& f : p.flows) {
      tids.insert(f.from_tid);
      tids.insert(f.to_tid);
    }
    for (const std::uint16_t tid : tids) {
      sep();
      out += "{\"ph\": \"M\", \"pid\": ";
      append_u64(out, p.pid);
      out += ", \"tid\": ";
      append_u64(out, tid);
      out += ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
      if (p.pe_count != 0 && tid == p.pe_count)
        out += "HW units";
      else {
        out += "PE";
        append_u64(out, tid);
      }
      out += "\"}}";
    }
    for (const Event& e : p.events) {
      sep();
      out += "{\"ph\": \"X\", \"pid\": ";
      append_u64(out, p.pid);
      out += ", \"tid\": ";
      append_u64(out, e.pe);
      out += ", \"ts\": ";
      append_u64(out, static_cast<std::uint64_t>(e.start));
      out += ", \"dur\": ";
      append_u64(out, static_cast<std::uint64_t>(e.dur));
      out += ", \"name\": \"";
      out += event_kind_name(e.kind);
      out += "\", \"cat\": \"";
      out += event_category(e.kind);
      out += "\"";
      if (e.kind == EventKind::kWaitFor) {
        // Decoded dependency payload: who waits on what, held by whom.
        const WaitForInfo info = unpack_wait_for(e.a1);
        out += ", \"args\": {\"waiter\": ";
        append_u64(out, e.a0);
        out += ", \"kind\": \"";
        out += wait_object_name(info.kind);
        out += "\", \"object\": ";
        append_u64(out, info.object);
        if (info.has_holder) {
          out += ", \"holder\": ";
          append_u64(out, info.holder);
        }
        out += "}";
      } else {
        const ArgNames names = arg_names(e.kind);
        if (names.a0 != nullptr) {
          out += ", \"args\": {\"";
          out += names.a0;
          out += "\": ";
          append_u64(out, e.a0);
          if (names.a1 != nullptr) {
            out += ", \"";
            out += names.a1;
            out += "\": ";
            append_u64(out, e.a1);
          }
          out += "}";
        }
      }
      out += "}";
    }
    // Windowed samples as one counter track per series track (the
    // engine gauges ride along as extra tracks when present).
    for (const TimeSeries* ts : {&p.series, &p.engine_series}) {
      for (const TimeSeries::Sample& s : ts->samples()) {
        for (std::size_t t = 0; t < ts->tracks().size(); ++t) {
          sep();
          out += "{\"ph\": \"C\", \"pid\": ";
          append_u64(out, p.pid);
          out += ", \"ts\": ";
          append_u64(out, static_cast<std::uint64_t>(s.t));
          out += ", \"name\": \"";
          append_escaped(out, ts->tracks()[t]);
          out += "\", \"args\": {\"value\": ";
          append_u64(out, s.values[t]);
          out += "}}";
        }
      }
    }
    // Wait-for arrows: a flow start on the waiter's thread bound to its
    // kWaitFor instant, finishing on the holder's thread.
    for (std::size_t i = 0; i < p.flows.size(); ++i) {
      const FlowArrow& f = p.flows[i];
      const std::uint64_t id =
          (static_cast<std::uint64_t>(p.pid) << 32) | i;
      for (const bool start : {true, false}) {
        sep();
        out += start ? "{\"ph\": \"s\"" : "{\"ph\": \"f\", \"bp\": \"e\"";
        out += ", \"pid\": ";
        append_u64(out, p.pid);
        out += ", \"tid\": ";
        append_u64(out, start ? f.from_tid : f.to_tid);
        out += ", \"ts\": ";
        append_u64(out, static_cast<std::uint64_t>(f.ts));
        out += ", \"id\": ";
        append_u64(out, id);
        out += ", \"cat\": \"dep\", \"name\": \"";
        append_escaped(out, f.name);
        out += "\"}";
      }
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace delta::obs
