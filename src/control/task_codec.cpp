#include "control/task_codec.h"

namespace volley::control {

namespace {

template <class T>
bool read(std::span<const std::byte> in, std::size_t& pos, T& value) {
  wire::ByteReader r(in, pos);
  const bool ok = r(value);
  pos = r.pos();
  return ok;
}

}  // namespace

void encode_task_spec(std::vector<std::byte>& out, const TaskSpec& spec) {
  wire::ByteWriter{out}(spec);
}

bool decode_task_spec(std::span<const std::byte> in, std::size_t& pos,
                      TaskSpec& spec) {
  return read(in, pos, spec);
}

void encode_task_record(std::vector<std::byte>& out,
                        const TaskRecord& record) {
  wire::ByteWriter{out}(record);
}

bool decode_task_record(std::span<const std::byte> in, std::size_t& pos,
                        TaskRecord& record) {
  return read(in, pos, record);
}

std::vector<std::byte> encode_record(const TaskRecord& record) {
  std::vector<std::byte> out;
  encode_task_record(out, record);
  return out;
}

bool specs_equal(const TaskSpec& a, const TaskSpec& b) {
  return a.global_threshold == b.global_threshold &&
         a.error_allowance == b.error_allowance &&
         a.id_seconds == b.id_seconds && a.max_interval == b.max_interval &&
         a.slack_ratio == b.slack_ratio && a.patience == b.patience &&
         a.updating_period == b.updating_period &&
         a.estimator.stats_window == b.estimator.stats_window &&
         a.estimator.stats_warmup == b.estimator.stats_warmup &&
         a.estimator.min_observations == b.estimator.min_observations &&
         a.estimator.bound == b.estimator.bound;
}

}  // namespace volley::control
