/**
 * @file
 * Checked numbers for command-line flags outside a protocol request
 * (request fields are serve::parseRequest's): `--jobs abc`, `-1` or
 * `4x` fail with one message instead of meaning 0, UINT_MAX or 4.
 */

#pragma once

#include <cstdint>

namespace msc {
namespace client {

/** The largest worker-thread count any `--jobs` flag accepts (0
 *  still means "all cores"). */
constexpr uint64_t MAX_JOBS = 256;

/** Parses @p text, the value of @p flag, as a decimal integer in
 *  [0, @p max]. Throws runtime::StageError (ErrorKind::InvalidInput,
 *  stage "cli") on an empty string, a sign, any non-digit, or a value
 *  above @p max (overflow included). */
uint64_t parseUInt(const char *flag, const char *text, uint64_t max);

} // namespace client
} // namespace msc
