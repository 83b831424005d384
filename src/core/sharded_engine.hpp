// Forwarding header: the sharded engine is core::IpdEngine with
// EngineConfig::shard_bits > 0 (see core/engine.hpp). ShardedEngine and
// ShardedEngineConfig are aliases declared there.
#pragma once

#include "core/engine.hpp"
