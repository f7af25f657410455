// ShardGroup<NitroSketch<Base>> for the shard and supervision suites and
// the shard benches, built the way nitro_monitor builds its
// NitroUnivMon shards: one base factory for every shard (mergeable
// counters) and per-shard sampler seeds from shard::shard_sampler_seed.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/nitro_config.hpp"
#include "core/nitro_sketch.hpp"
#include "shard/shard_group.hpp"

namespace nitro::testing {

template <typename Base>
using NitroShards = shard::ShardGroup<core::NitroSketch<Base>>;

/// `make_base()` must return identically seeded Base sketches; it is
/// called once per shard.
template <typename MakeBase, typename Base = std::invoke_result_t<MakeBase&>>
NitroShards<Base> nitro_shards(std::uint32_t workers, MakeBase make_base,
                               const core::NitroConfig& cfg,
                               shard::ShardOptions opts = {}) {
  return NitroShards<Base>(
      workers,
      [&](std::uint32_t i) {
        core::NitroConfig shard_cfg = cfg;
        shard_cfg.seed = shard::shard_sampler_seed(cfg.seed, i);
        return core::NitroSketch<Base>(make_base(), shard_cfg);
      },
      opts);
}

/// The epoch boundary: drain, then merge every live shard into a fresh
/// instance (which clears the shards for the next epoch).
template <typename Base, typename MakeBase>
core::NitroSketch<Base> merged_view(NitroShards<Base>& group, MakeBase make_base,
                                    const core::NitroConfig& cfg) {
  core::NitroSketch<Base> into(make_base(), cfg);
  group.drain();
  group.merge_into(into);
  return into;
}

}  // namespace nitro::testing
