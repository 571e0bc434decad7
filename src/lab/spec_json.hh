/**
 * @file
 * JSON serialization of experiment descriptions: WorkloadSpec, Job
 * and ExperimentSpec. The engine configurations nested in them are
 * written and read through their field lists (base/json_fields.hh:
 * toJson/fromJson).
 *
 * This is the wire format of the simulation service (smtsim::serve):
 * clients submit an ExperimentSpec document, the daemon ships
 * individual Jobs to worker processes. The round-trip contract is
 * strict — jobFromJson(jobToJson(j)) reproduces j's cacheKey()
 * exactly, covering every config field — because the daemon's
 * dedup/cache layers key on that address while the worker re-derives
 * it independently (tests/test_serve.cc locks this down).
 *
 * Unknown members are rejected, not ignored: a client sending a
 * config field this build does not understand must get an error
 * rather than a silently different simulation. So is a number that
 * does not fit its field (out of range, negative for an unsigned
 * field, fractional for an integer one), with the member named.
 */

#ifndef SMTSIM_LAB_SPEC_JSON_HH
#define SMTSIM_LAB_SPEC_JSON_HH

#include "base/json.hh"
#include "lab/spec.hh"

namespace smtsim::lab
{

Json workloadSpecToJson(const WorkloadSpec &spec);
/** @throws JsonParseError on malformed/unknown-member input. */
WorkloadSpec workloadSpecFromJson(const Json &j);

Json jobToJson(const Job &job);
Job jobFromJson(const Json &j);

Json experimentSpecToJson(const ExperimentSpec &spec);
ExperimentSpec experimentSpecFromJson(const Json &j);

} // namespace smtsim::lab

#endif // SMTSIM_LAB_SPEC_JSON_HH
