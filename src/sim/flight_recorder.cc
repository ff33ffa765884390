#include "src/sim/flight_recorder.h"

#include <iostream>
#include <ostream>

#include "src/base/fault.h"
#include "src/base/logging.h"

namespace solros {

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity) {
  CHECK_GT(capacity_, 0u);
  entries_.resize(capacity_);
}

FlightRecorder::~FlightRecorder() {
  if (fault_trigger_armed_) {
    Faults().SetFireListener(nullptr);
  }
}

void FlightRecorder::Note(char kind, std::string_view track,
                          std::string_view name, uint64_t trace_id,
                          SimTime at) {
  // When full, (head_ + size_) % capacity_ == head_: the write overwrites
  // the oldest entry and the window slides forward by one.
  Entry& slot = entries_[(head_ + size_) % capacity_];
  slot.at = at;
  slot.kind = kind;
  slot.track = std::string(track);
  slot.name = std::string(name);
  slot.trace_id = trace_id;
  if (size_ == capacity_) {
    head_ = (head_ + 1) % capacity_;
  } else {
    ++size_;
  }
  last_at_ = at;
}

void FlightRecorder::Dump(std::string_view trigger) {
  DumpRecord dump;
  dump.seq = ++total_dumps_;
  dump.trigger = std::string(trigger);
  dump.at = last_at_;
  dump.entries.reserve(size_);
  for (size_t i = 0; i < size_; ++i) {
    dump.entries.push_back(entries_[(head_ + i) % capacity_]);
  }
  if (echo_to_stderr_) {
    WriteDump(std::cerr, dump);
  }
  dumps_.push_back(std::move(dump));
  while (dumps_.size() > kMaxDumps) {
    dumps_.pop_front();
  }
}

void FlightRecorder::ArmFaultTrigger() {
  Faults().SetFireListener([this](const std::string& point_name) {
    Dump("fault: " + point_name);
  });
  fault_trigger_armed_ = true;
}

void FlightRecorder::WriteDump(std::ostream& os, const DumpRecord& dump) {
  os << "=== flight recorder dump #" << dump.seq << " @" << dump.at
     << "ns: " << dump.trigger << " ===\n";
  for (const Entry& entry : dump.entries) {
    os << "  " << entry.at << "ns  " << entry.kind << "  " << entry.track
       << "/" << entry.name;
    if (entry.trace_id != 0) {
      os << "  trace=" << entry.trace_id;
    }
    os << "\n";
  }
}

void FlightRecorder::WriteText(std::ostream& os) const {
  for (const DumpRecord& dump : dumps_) {
    WriteDump(os, dump);
  }
}

}  // namespace solros
