/**
 * @file
 * The one JSON writer every report document goes through (DESIGN.md
 * §7, "Report encoding"). It alone decides how a value is spelled:
 * compact output; strings escape @c ", @c \ and every byte below
 * 0x20 (RFC 8259 §7) and pass all other bytes through; integers print
 * exactly; doubles print as the shortest text that reads back to the
 * same bits (@c std::to_chars); NaN and ±inf print as @c null.
 */

#ifndef AIB_CORE_JSON_H
#define AIB_CORE_JSON_H

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>

namespace aib::core::json {

/**
 * Builds one JSON document into a string. The writer places the
 * separators; the caller opens and closes objects and arrays in order
 * and names each object member with key() (or field()) before its
 * value. Nesting is not checked.
 */
class Writer
{
  public:
    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** Name the next member of the enclosing object. */
    Writer &key(std::string_view name);

    Writer &value(std::string_view v);
    Writer &value(const char *v) { return value(std::string_view(v)); }
    Writer &value(bool v) { return scalar(v ? "true" : "false"); }
    Writer &value(std::nullptr_t) { return scalar("null"); }
    Writer &value(double v);
    Writer &value(std::integral auto v)
    {
        char buf[24];
        return scalar({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
    }

    /** key(@p name) then value(@p v). */
    template <typename T>
    Writer &field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** The document so far (no trailing newline). */
    const std::string &str() const { return out_; }

  private:
    Writer &open(char bracket);
    Writer &close(char bracket);
    /** Write @p token, after a comma when a value precedes it. */
    Writer &scalar(std::string_view token);

    std::string out_;
    bool needComma_ = false;
};

} // namespace aib::core::json

#endif // AIB_CORE_JSON_H
