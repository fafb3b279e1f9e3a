#include "common/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>

namespace dangoron {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      break;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return fields;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> fields;
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    const size_t start = i;
    while (i < n && !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) {
      fields.emplace_back(text.substr(start, i - start));
    }
  }
  return fields;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (size < 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string out(static_cast<size_t>(size), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

Result<double> ParseDouble(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not a double");
  }
  // strtod needs NUL termination; copy into a small buffer.
  std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: '", buffer, "'");
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("not a double: '", buffer, "'");
  }
  return value;
}

Result<int64_t> ParseInt64(std::string_view text) {
  const std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  std::string buffer(trimmed);
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '", buffer, "'");
  }
  if (end != buffer.c_str() + buffer.size()) {
    return Status::InvalidArgument("not an integer: '", buffer, "'");
  }
  return static_cast<int64_t>(value);
}

std::string WithThousandsSeparators(int64_t value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) {
      out.push_back(',');
    }
    out.push_back(*it);
    ++count;
  }
  if (negative) {
    out.push_back('-');
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace dangoron
