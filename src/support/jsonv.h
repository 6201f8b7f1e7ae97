/**
 * @file
 * A minimal JSON parser — the read-side counterpart of support/json.h.
 *
 * Used by the trace-query API (sim::TraceReader) and the report
 * validators (tests/validate_reports_test.cc) to load the JSON this
 * toolchain itself emits: trace files (assassyn.trace.v1), sweep
 * reports (assassyn.sweep.v3), checkpoint manifests
 * (assassyn.ckpt.v1), and bench trajectories
 * (assassyn.bench.fig16.v5). Deliberately small: a recursive-descent
 * parser into a plain DOM value, numbers as double (every quantity we
 * emit — cycles, timestamps, counters — fits in the 2^53 integer range
 * of a double), strings with the RFC 8259 escapes json.h produces.
 * fatal() on malformed input, naming the byte offset.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/logging.h"

namespace assassyn {
namespace jsonv {

/** One parsed JSON value (object members keep document order). */
struct Value {
    enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray,
                                kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::kNull; }
    bool isBool() const { return kind == Kind::kBool; }
    bool isNumber() const { return kind == Kind::kNumber; }
    bool isString() const { return kind == Kind::kString; }
    bool isArray() const { return kind == Kind::kArray; }
    bool isObject() const { return kind == Kind::kObject; }

    /** Integer view of a number (timestamps, counters, ids). */
    uint64_t u64() const { return static_cast<uint64_t>(number); }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *
    find(const std::string &key) const
    {
        if (kind != Kind::kObject)
            return nullptr;
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

namespace detail {

class Parser {
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parse()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after the document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        fatal("json parse error at byte ", pos_, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    parseValue()
    {
        skipWs();
        char c = peek();
        Value v;
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"':
            v.kind = Value::Kind::kString;
            v.string = parseString();
            return v;
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            v.kind = Value::Kind::kBool;
            v.boolean = true;
            return v;
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            v.kind = Value::Kind::kBool;
            v.boolean = false;
            return v;
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return v;
          default:
            return parseNumber();
        }
    }

    Value
    parseObject()
    {
        Value v;
        v.kind = Value::Kind::kObject;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    parseArray()
    {
        Value v;
        v.kind = Value::Kind::kArray;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // json.h only emits \u00xx for control bytes; decode the
                // BMP generally as UTF-8 for robustness.
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xc0 | (code >> 6));
                    out += char(0x80 | (code & 0x3f));
                } else {
                    out += char(0xe0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3f));
                    out += char(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Value
    parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        Value v;
        v.kind = Value::Kind::kNumber;
        try {
            v.number = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return v;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

} // namespace detail

/** Parse one JSON document; fatal() on malformed input. */
inline Value
parse(const std::string &text)
{
    return detail::Parser(text).parse();
}

} // namespace jsonv
} // namespace assassyn
