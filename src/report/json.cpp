#include "report/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace plee::report {

json json::object() {
    json j;
    j.kind_ = kind::object;
    return j;
}

json json::array() {
    json j;
    j.kind_ = kind::array;
    return j;
}

json json::str(std::string value) {
    json j;
    j.kind_ = kind::string;
    j.string_ = std::move(value);
    return j;
}

json json::number(double value) {
    json j;
    j.kind_ = kind::real;
    j.real_ = value;
    return j;
}

json json::number(std::int64_t value) {
    json j;
    j.kind_ = kind::integer;
    j.integer_ = value;
    return j;
}

json json::boolean(bool value) {
    json j;
    j.kind_ = kind::boolean;
    j.bool_ = value;
    return j;
}

json& json::set(std::string key, json value) {
    if (kind_ != kind::object) {
        throw std::logic_error("json::set: not an object");
    }
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
}

json& json::push(json value) {
    if (kind_ != kind::array) {
        throw std::logic_error("json::push: not an array");
    }
    elements_.push_back(std::move(value));
    return *this;
}

namespace {

void escape_to(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void pad(std::string& out, int indent) { out.append(static_cast<std::size_t>(indent), ' '); }

}  // namespace

void json::dump_to(std::string& out, int indent) const {
    switch (kind_) {
        case kind::null:
            out += "null";
            break;
        case kind::boolean:
            out += bool_ ? "true" : "false";
            break;
        case kind::integer: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(integer_));
            out += buf;
            break;
        }
        case kind::real: {
            if (!std::isfinite(real_)) {
                out += "null";  // JSON has no Inf/NaN
                break;
            }
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.10g", real_);
            out += buf;
            break;
        }
        case kind::string:
            escape_to(out, string_);
            break;
        case kind::object: {
            if (members_.empty()) {
                out += "{}";
                break;
            }
            out += "{\n";
            for (std::size_t i = 0; i < members_.size(); ++i) {
                pad(out, indent + 2);
                escape_to(out, members_[i].first);
                out += ": ";
                members_[i].second.dump_to(out, indent + 2);
                if (i + 1 < members_.size()) out += ',';
                out += '\n';
            }
            pad(out, indent);
            out += '}';
            break;
        }
        case kind::array: {
            if (elements_.empty()) {
                out += "[]";
                break;
            }
            out += "[\n";
            for (std::size_t i = 0; i < elements_.size(); ++i) {
                pad(out, indent + 2);
                elements_[i].dump_to(out, indent + 2);
                if (i + 1 < elements_.size()) out += ',';
                out += '\n';
            }
            pad(out, indent);
            out += ']';
            break;
        }
    }
}

void json::dump_compact_to(std::string& out) const {
    switch (kind_) {
        case kind::object: {
            out += '{';
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (i != 0) out += ',';
                escape_to(out, members_[i].first);
                out += ':';
                members_[i].second.dump_compact_to(out);
            }
            out += '}';
            break;
        }
        case kind::array: {
            out += '[';
            for (std::size_t i = 0; i < elements_.size(); ++i) {
                if (i != 0) out += ',';
                elements_[i].dump_compact_to(out);
            }
            out += ']';
            break;
        }
        default:
            // Scalars print identically in both modes.
            dump_to(out, 0);
    }
}

std::string json::dump() const {
    std::string out;
    dump_to(out, 0);
    out += '\n';
    return out;
}

std::string json::dump_compact() const {
    std::string out;
    dump_compact_to(out);
    return out;
}

}  // namespace plee::report
