#include "ssr/metrics/trace_capture.h"

#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "ssr/common/check.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

constexpr char kMagic[8] = {'S', 'S', 'R', 'T', 'R', 'A', 'C', 'E'};
constexpr std::size_t kMagicSize = sizeof(kMagic);

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a 64 over `bytes`, continuing from `h` (so a body written in pieces
/// hashes like the concatenation).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- Little-endian writers ---------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, sizeof(b));
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, sizeof(b));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_task(std::string& out, TaskId task) {
  put_u32(out, task.stage.job.v);
  put_u32(out, task.stage.index);
  put_u32(out, task.index);
  put_u32(out, task.attempt);
}

// --- Bounds-checked reader ---------------------------------------------------

struct Cursor {
  std::string_view buf;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    SSR_CHECK_MSG(pos + n <= buf.size(),
                  "truncated trace: need " << n << " bytes at offset " << pos
                                           << ", have " << buf.size() - pos);
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(buf.substr(pos, n));
    pos += n;
    return s;
  }
  TaskId task() {
    TaskId t;
    t.stage.job.v = u32();
    t.stage.index = u32();
    t.index = u32();
    t.attempt = u32();
    return t;
  }
};

}  // namespace

// --- TraceRecorder -----------------------------------------------------------

TraceRecorder::TraceRecorder(std::uint32_t num_nodes, std::uint32_t num_slots,
                             std::uint64_t seed, std::string policy,
                             bool counts_expired) {
  header_.num_nodes = num_nodes;
  header_.num_slots = num_slots;
  header_.seed = seed;
  header_.policy = std::move(policy);
  header_.counts_expired = counts_expired;
}

void TraceRecorder::begin(const Engine& engine, TraceEventKind kind) {
  ++num_events_;
  put_u8(events_, static_cast<std::uint8_t>(kind));
  put_f64(events_, engine.sim().now());
}

void TraceRecorder::on_job_submitted(const Engine& engine, JobId job) {
  begin(engine, TraceEventKind::kJobSubmitted);
  put_u32(events_, job.v);
  put_i32(events_, engine.graph(job).priority());
  put_str(events_, engine.job_name(job));
  const std::string* tenant = tenant_of_ ? tenant_of_(job) : nullptr;
  put_str(events_, tenant != nullptr ? std::string_view(*tenant)
                                     : std::string_view());
}

void TraceRecorder::on_job_finished(const Engine& engine, JobId job) {
  begin(engine, TraceEventKind::kJobFinished);
  put_u32(events_, job.v);
}

void TraceRecorder::on_stage_submitted(const Engine& engine, StageId stage) {
  begin(engine, TraceEventKind::kStageSubmitted);
  put_u32(events_, stage.job.v);
  put_u32(events_, stage.index);
  const std::vector<std::uint32_t>& parents =
      engine.graph(stage.job).stage(stage.index).parents;
  put_u32(events_, static_cast<std::uint32_t>(parents.size()));
  for (std::uint32_t p : parents) put_u32(events_, p);
}

void TraceRecorder::on_stage_finished(const Engine& engine, StageId stage) {
  begin(engine, TraceEventKind::kStageFinished);
  put_u32(events_, stage.job.v);
  put_u32(events_, stage.index);
}

void TraceRecorder::on_task_started(const Engine& engine, TaskId task,
                                    SlotId slot) {
  begin(engine, TraceEventKind::kTaskStarted);
  put_task(events_, task);
  put_u32(events_, slot.v);
  // Same locality rule as TaskStatsCollector::on_task_started, captured so
  // a replay reproduces local_starts without a StageRuntime.
  const StageRuntime* rt = engine.stage_runtime(task.stage);
  const bool local = rt != nullptr && task.attempt == 0 &&
                     task.index < rt->parallelism() &&
                     rt->original(task.index).local;
  put_u8(events_, local ? 1 : 0);
}

void TraceRecorder::on_task_finished(const Engine& engine, TaskId task,
                                     SlotId slot) {
  begin(engine, TraceEventKind::kTaskFinished);
  put_task(events_, task);
  put_u32(events_, slot.v);
}

void TraceRecorder::on_task_killed(const Engine& engine, TaskId task,
                                   SlotId slot) {
  begin(engine, TraceEventKind::kTaskKilled);
  put_task(events_, task);
  put_u32(events_, slot.v);
}

void TraceRecorder::on_task_failed(const Engine& engine, TaskId task,
                                   SlotId slot) {
  begin(engine, TraceEventKind::kTaskFailed);
  put_task(events_, task);
  put_u32(events_, slot.v);
}

void TraceRecorder::on_task_requeued(const Engine& engine, TaskId task) {
  begin(engine, TraceEventKind::kTaskRequeued);
  put_task(events_, task);
}

void TraceRecorder::on_stage_invalidated(const Engine& engine, StageId stage) {
  begin(engine, TraceEventKind::kStageInvalidated);
  put_u32(events_, stage.job.v);
  put_u32(events_, stage.index);
}

void TraceRecorder::on_slot_failed(const Engine& engine, SlotId slot) {
  begin(engine, TraceEventKind::kSlotFailed);
  put_u32(events_, slot.v);
}

void TraceRecorder::on_slot_recovered(const Engine& engine, SlotId slot) {
  begin(engine, TraceEventKind::kSlotRecovered);
  put_u32(events_, slot.v);
}

void TraceRecorder::on_slot_reserved(const Engine& engine, SlotId slot,
                                     const Reservation& reservation) {
  begin(engine, TraceEventKind::kSlotReserved);
  put_u32(events_, slot.v);
  put_u32(events_, reservation.job.v);
  put_i32(events_, reservation.priority);
  put_f64(events_, reservation.deadline);
  put_u32(events_, reservation.for_stage.job.v);
  put_u32(events_, reservation.for_stage.index);
  put_u64(events_, reservation.token);
}

void TraceRecorder::on_reservation_released(const Engine& engine, SlotId slot,
                                            ReservationEndReason reason) {
  begin(engine, TraceEventKind::kReservationReleased);
  put_u32(events_, slot.v);
  put_u8(events_, static_cast<std::uint8_t>(reason));
}

void TraceRecorder::on_run_complete(const Engine& engine) {
  begin(engine, TraceEventKind::kRunComplete);
}

void TraceRecorder::write_file(const std::string& path) const {
  // The body is version | header | event count | events; only the small
  // prefix is built here, the events are written from the record buffer.
  std::string prefix;
  put_u32(prefix, header_.version);
  put_u32(prefix, header_.num_nodes);
  put_u32(prefix, header_.num_slots);
  put_u64(prefix, header_.seed);
  put_u8(prefix, header_.counts_expired ? 1 : 0);
  put_u64(prefix, header_.suspicions);
  put_u64(prefix, header_.false_suspicions);
  put_str(prefix, header_.policy);
  put_u64(prefix, num_events_);
  std::string checksum;
  put_u64(checksum, fnv1a(events_, fnv1a(prefix)));

  std::ofstream out(path, std::ios::binary);
  SSR_CHECK_MSG(out.good(), "cannot open trace file " << path
                                                      << " for writing");
  out.write(kMagic, kMagicSize);
  for (std::string_view part : {std::string_view(prefix),
                                std::string_view(events_),
                                std::string_view(checksum)}) {
    out.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
  SSR_CHECK_MSG(out.good(), "short write to trace file " << path);
}

// --- TraceReplayer -----------------------------------------------------------

TraceReplayer TraceReplayer::from_bytes(const std::string& bytes) {
  SSR_CHECK_MSG(bytes.size() >= kMagicSize + 4 + 8,
                "truncated trace: " << bytes.size()
                                    << " bytes is too short to be an SSR "
                                       "trace");
  SSR_CHECK_MSG(std::memcmp(bytes.data(), kMagic, kMagicSize) == 0,
                "not an SSR trace (bad magic)");
  const std::string_view body = std::string_view(bytes).substr(
      kMagicSize, bytes.size() - kMagicSize - 8);
  Cursor tail{bytes, bytes.size() - 8};
  const std::uint64_t stored = tail.u64();
  // Version is validated before the checksum so a reader that is simply too
  // old/new reports the skew, not "corrupt".
  Cursor cur{body, 0};
  const std::uint32_t version = cur.u32();
  SSR_CHECK_MSG(version == kTraceVersion,
                "trace version mismatch: file has v"
                    << version << ", this reader supports v" << kTraceVersion);
  SSR_CHECK_MSG(fnv1a(body) == stored,
                "trace checksum mismatch (corrupt or truncated file)");

  TraceReplayer replayer;
  replayer.header_.version = version;
  replayer.header_.num_nodes = cur.u32();
  replayer.header_.num_slots = cur.u32();
  replayer.header_.seed = cur.u64();
  replayer.header_.counts_expired = cur.u8() != 0;
  replayer.header_.suspicions = cur.u64();
  replayer.header_.false_suspicions = cur.u64();
  replayer.header_.policy = cur.str();
  const std::uint64_t count = cur.u64();
  replayer.events_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent& e = replayer.events_.emplace_back();
    const std::uint8_t kind = cur.u8();
    SSR_CHECK_MSG(
        kind >= static_cast<std::uint8_t>(TraceEventKind::kJobSubmitted) &&
            kind <= static_cast<std::uint8_t>(TraceEventKind::kRunComplete),
        "unknown trace event kind " << static_cast<int>(kind) << " at event "
                                    << i);
    e.kind = static_cast<TraceEventKind>(kind);
    e.time = cur.f64();
    switch (e.kind) {
      case TraceEventKind::kJobSubmitted:
        e.job.v = cur.u32();
        e.priority = cur.i32();
        e.job_name = cur.str();
        e.tenant = cur.str();
        break;
      case TraceEventKind::kJobFinished:
        e.job.v = cur.u32();
        break;
      case TraceEventKind::kStageSubmitted: {
        e.stage.job.v = cur.u32();
        e.stage.index = cur.u32();
        const std::uint32_t n = cur.u32();
        e.parents.reserve(n);
        for (std::uint32_t p = 0; p < n; ++p) e.parents.push_back(cur.u32());
        break;
      }
      case TraceEventKind::kStageFinished:
      case TraceEventKind::kStageInvalidated:
        e.stage.job.v = cur.u32();
        e.stage.index = cur.u32();
        break;
      case TraceEventKind::kTaskStarted:
        e.task = cur.task();
        e.slot.v = cur.u32();
        e.local = cur.u8() != 0;
        break;
      case TraceEventKind::kTaskFinished:
      case TraceEventKind::kTaskKilled:
      case TraceEventKind::kTaskFailed:
        e.task = cur.task();
        e.slot.v = cur.u32();
        break;
      case TraceEventKind::kTaskRequeued:
        e.task = cur.task();
        break;
      case TraceEventKind::kSlotFailed:
      case TraceEventKind::kSlotRecovered:
        e.slot.v = cur.u32();
        break;
      case TraceEventKind::kSlotReserved:
        e.slot.v = cur.u32();
        e.job.v = cur.u32();
        e.priority = cur.i32();
        e.deadline = cur.f64();
        e.for_stage.job.v = cur.u32();
        e.for_stage.index = cur.u32();
        e.token = cur.u64();
        break;
      case TraceEventKind::kReservationReleased: {
        e.slot.v = cur.u32();
        const std::uint8_t reason = cur.u8();
        SSR_CHECK_MSG(
            reason <= static_cast<std::uint8_t>(
                          ReservationEndReason::SlotFailed),
            "unknown reservation end reason " << static_cast<int>(reason));
        e.reason = static_cast<ReservationEndReason>(reason);
        break;
      }
      case TraceEventKind::kRunComplete:
        break;
    }
  }
  SSR_CHECK_MSG(cur.pos == body.size(),
                "trace has " << body.size() - cur.pos
                             << " trailing bytes after the last event");
  return replayer;
}

TraceReplayer TraceReplayer::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  SSR_CHECK_MSG(in.good(), "cannot open trace file " << path);
  const std::streamoff size = in.tellg();
  SSR_CHECK_MSG(size >= 0, "cannot read trace file " << path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  SSR_CHECK_MSG(in.gcount() == size, "cannot read trace file " << path);
  return from_bytes(bytes);
}

void TraceReplayer::replay(const std::vector<TraceConsumer*>& consumers) const {
  for (TraceConsumer* c : consumers) c->on_trace_begin(header_);
  for (const TraceEvent& e : events_) {
    for (TraceConsumer* c : consumers) c->on_trace_event(e);
  }
}

// --- TraceExportFeeder -------------------------------------------------------

void TraceExportFeeder::on_trace_event(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kJobSubmitted: {
      jobs_[event.job] = {event.job_name, event.tenant};
      exporter_.record_instant("submit " + event.job_name, event.time);
      break;
    }
    case TraceEventKind::kJobFinished: {
      auto it = jobs_.find(event.job);
      SSR_CHECK_MSG(it != jobs_.end(),
                    "trace finishes " << event.job << " before submitting it");
      exporter_.record_instant("finish " + it->second.first, event.time);
      break;
    }
    case TraceEventKind::kTaskStarted: {
      auto it = jobs_.find(event.task.stage.job);
      SSR_CHECK_MSG(it != jobs_.end(), "trace starts a task of "
                                           << event.task.stage.job
                                           << " before submitting the job");
      exporter_.record_task_started(event.time, event.task, event.slot,
                                    it->second.first, it->second.second);
      break;
    }
    case TraceEventKind::kTaskFinished:
      exporter_.record_task_finished(event.time, event.task, event.slot);
      break;
    case TraceEventKind::kTaskKilled:
    case TraceEventKind::kTaskFailed:
      exporter_.record_task_killed(event.time, event.task, event.slot);
      break;
    default:
      break;
  }
}

}  // namespace ssr
