// Plain-text serialization of calibrated model state: the machine-dependent
// vector and fitted workload models round-trip through a simple
// `key = value` format so an expensive calibration pass can be saved and
// reloaded (the query service's `calibrate` replies carry these texts and
// its `install` reads them).
//
// Format:
//   [machine]
//   name = SystemG
//   cpi = 0.5502
//   ...
//   [workload FT]
//   alpha = 0.89
//   ...
//
// Exactly one [machine] section and at most one [workload <NAME>] section per
// document.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "model/params.hpp"
#include "model/workloads.hpp"

namespace isoee::model {

/// Serializes a machine vector as a [machine] section.
std::string serialize(const MachineParams& machine);

/// Parses a [machine] section; nullopt on malformed input.
std::optional<MachineParams> parse_machine(const std::string& text);

/// Serializes any of the built-in workload models ([workload <NAME>]).
/// Throws std::invalid_argument for an unknown name and std::bad_cast for a
/// type that is not the built-in model of its name.
std::string serialize(const WorkloadModel& workload);

/// Parses a [workload ...] section into the matching model type; nullptr on
/// malformed input or unknown workload name.
std::unique_ptr<WorkloadModel> parse_workload(const std::string& text);

}  // namespace isoee::model
