#include "client/cli.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string>

#include "runtime/error.h"

namespace msc {
namespace client {

uint64_t
parseUInt(const char *flag, const char *text, uint64_t max)
{
    const char *end = text + std::strlen(text);
    uint64_t v = 0;
    // For an unsigned type from_chars takes no sign, space or prefix,
    // and fails on an empty string and on overflow.
    auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v > max)
        throw runtime::StageError(
            runtime::ErrorKind::InvalidInput, "cli",
            std::string(flag) + " must be an integer in [0, " +
                std::to_string(max) + "], got \"" +
                std::string(text, std::min<size_t>(end - text, 64)) +
                "\"");
    return v;
}

} // namespace client
} // namespace msc
