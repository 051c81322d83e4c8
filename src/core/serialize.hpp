#ifndef FRAZ_CORE_SERIALIZE_HPP
#define FRAZ_CORE_SERIALIZE_HPP

/// \file serialize.hpp
/// JSON rendering of tuner results and option maps, so workflows can consume
/// FRaZ output programmatically (the CLI's --json mode, experiment logs).
/// Escaping and number formatting live in util/json_writer.hpp (re-exported
/// here: json_escape, json_number).

#include <string>

#include "core/tuner.hpp"
#include "pressio/options.hpp"
#include "util/json_writer.hpp"

namespace fraz {

/// Render an option map as one flat JSON object.
std::string to_json(const pressio::Options& options);

/// Render a TuneResult (region details included when present).
std::string to_json(const TuneResult& result);

/// Write to_json(result)'s keys into the object \p w has open, so a caller
/// can add its own keys to the same object before closing it.
void write_json_fields(JsonWriter& w, const TuneResult& result);

}  // namespace fraz

#endif  // FRAZ_CORE_SERIALIZE_HPP
