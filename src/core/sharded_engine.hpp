// Aliases kept only for the pipeline benchmark (pipebench/), which is built
// against this header; everything else names IpdEngine and EngineConfig.
// The next change to the benchmark deletes this header.
#pragma once

#include "core/engine.hpp"

namespace ipd::core {
using EngineBase = IpdEngine;
using ShardedEngine = IpdEngine;
using ShardedEngineConfig = EngineConfig;
}  // namespace ipd::core
