#include "core/json.h"

#include <charconv>
#include <cmath>

namespace aib::core::json {

Writer &
Writer::scalar(std::string_view token)
{
    if (needComma_)
        out_ += ',';
    out_ += token;
    needComma_ = true;
    return *this;
}

Writer &
Writer::open(char bracket)
{
    scalar(std::string_view(&bracket, 1));
    needComma_ = false;
    return *this;
}

Writer &
Writer::close(char bracket)
{
    out_ += bracket;
    needComma_ = true;
    return *this;
}

Writer &
Writer::key(std::string_view name)
{
    value(name);
    out_ += ':';
    needComma_ = false;
    return *this;
}

Writer &
Writer::value(std::string_view v)
{
    static constexpr char kHex[] = "0123456789abcdef";
    scalar("\"");
    for (const char c : v) {
        const auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (c == '\n') {
            out_ += "\\n";
        } else if (byte < 0x20) {
            out_ += "\\u00";
            out_ += kHex[byte >> 4];
            out_ += kHex[byte & 0xF];
        } else {
            out_ += c;
        }
    }
    out_ += '"';
    return *this;
}

Writer &
Writer::value(double v)
{
    if (!std::isfinite(v))
        return scalar("null");
    char buf[32]; // a shortest round-trip double takes at most 24
    return scalar({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

} // namespace aib::core::json
