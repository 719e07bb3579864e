#include "common/parse_int.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace tmotif {

bool ParseInt64(const char* text, std::int64_t* out) {
  if (text == nullptr || *text == '\0' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

}  // namespace tmotif
