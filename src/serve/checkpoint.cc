#include "serve/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <locale>
#include <utility>

#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace autoscale::serve {

namespace {

constexpr const char *kMagic = "autoscale-checkpoint";
constexpr const char *kVersion = "v1";

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        return false;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    *out = buffer.str();
    return true;
}

} // namespace

std::string
sealCheckpoint(const std::function<void(std::ostream &)> &writeBody)
{
    std::ostringstream body;
    body.imbue(std::locale::classic());
    writeBody(body);
    std::string bytes = body.str();

    char footer[32];
    std::snprintf(footer, sizeof(footer), "crc32 %08x\n",
                  crc32(bytes.data(), bytes.size()));
    bytes += footer;
    return bytes;
}

bool
openCheckpoint(const std::string &bytes, const char *kind,
               std::istringstream *body, std::string *error)
{
    std::string ignored;
    if (error == nullptr) {
        error = &ignored;
    }
    // The footer is the last non-empty line; everything before it is
    // covered by the CRC. Checking the CRC first subsumes most
    // truncation/corruption cases with one comparison.
    if (bytes.empty()) {
        *error = std::string("empty ") + kind;
        return false;
    }
    // A file that does not end in a newline lost its tail mid-write.
    if (bytes.back() != '\n') {
        *error = std::string("truncated ") + kind + " (no final newline)";
        return false;
    }
    const std::size_t footerStart = bytes.rfind("crc32 ");
    if (footerStart == std::string::npos
        || (footerStart != 0 && bytes[footerStart - 1] != '\n')) {
        *error = std::string("missing crc32 footer (truncated ") + kind
            + "?)";
        return false;
    }
    unsigned long storedCrc = 0;
    {
        std::istringstream footer(bytes.substr(footerStart + 6));
        footer.imbue(std::locale::classic());
        if (!(footer >> std::hex >> storedCrc)) {
            *error = "unparseable crc32 footer";
            return false;
        }
    }
    const std::uint32_t actualCrc = crc32(bytes.data(), footerStart);
    if (actualCrc != static_cast<std::uint32_t>(storedCrc)) {
        char message[96];
        std::snprintf(message, sizeof(message),
                      "crc32 mismatch (stored %08lx, computed %08x)",
                      storedCrc, actualCrc);
        *error = message;
        return false;
    }
    body->imbue(std::locale::classic());
    body->str(bytes.substr(0, footerStart));
    return true;
}

std::string
encodeCheckpoint(const std::string &fingerprint, std::int64_t step,
                 const core::QTable &table)
{
    return sealCheckpoint([&](std::ostream &body) {
        body << kMagic << ' ' << kVersion << ' ' << fingerprint << ' '
             << step << '\n';
        table.save(body);
    });
}

bool
decodeCheckpoint(const std::string &bytes, CheckpointData *out,
                 std::string *error)
{
    std::string ignored;
    if (error == nullptr) {
        error = &ignored;
    }
    std::istringstream is;
    if (!openCheckpoint(bytes, "checkpoint", &is, error)) {
        return false;
    }
    std::string magic;
    std::string version;
    CheckpointData data;
    if (!(is >> magic >> version >> data.fingerprint >> data.step)) {
        *error = "malformed checkpoint header";
        return false;
    }
    if (magic != kMagic || version != kVersion) {
        *error = "not an " + std::string(kMagic) + " " + kVersion + " file";
        return false;
    }
    if (data.step < 0) {
        *error = "negative step in checkpoint header";
        return false;
    }
    if (!core::QTable::parse(is, &data.table, error)) {
        *error = "invalid Q-table in checkpoint: " + *error;
        return false;
    }
    if (out != nullptr) {
        *out = std::move(data);
    }
    return true;
}

const char *
checkpointSourceName(CheckpointSource source)
{
    switch (source) {
    case CheckpointSource::None:
        return "none";
    case CheckpointSource::Primary:
        return "primary";
    case CheckpointSource::Previous:
        return "prev";
    }
    panic("unreachable checkpoint source");
}

CheckpointManager::CheckpointManager(std::string path)
    : path_(std::move(path)), prevPath_(path_ + ".prev")
{
    AS_CHECK(!path_.empty());
}

bool
CheckpointManager::save(const std::string &bytes, std::string *error)
{
    // Rotate the current file out of the way first. If the process
    // dies between the rotate and the write, only `.prev` exists and
    // load() recovers from it; atomicWriteFile guarantees the new
    // primary is never observable half-written.
    std::ifstream exists(path_, std::ios::binary);
    if (exists) {
        exists.close();
        if (std::rename(path_.c_str(), prevPath_.c_str()) != 0) {
            if (error != nullptr) {
                *error = "cannot rotate '" + path_ + "' to '" + prevPath_
                    + "'";
            }
            return false;
        }
    }
    if (!atomicWriteFile(path_, bytes, error)) {
        return false;
    }
    ++written_;
    return true;
}

CheckpointSource
CheckpointManager::recover(
    const std::function<bool(const std::string &, std::string *)> &decode,
    int *corruptDetected, std::string *error) const
{
    const std::pair<const std::string *, CheckpointSource> files[] = {
        {&path_, CheckpointSource::Primary},
        {&prevPath_, CheckpointSource::Previous}};
    std::string bytes;
    for (const auto &[path, source] : files) {
        if (!readFile(*path, &bytes)) {
            continue;
        }
        std::string why;
        if (decode(bytes, &why)) {
            return source;
        }
        ++*corruptDetected;
        *error += (error->empty() ? "" : "; ") + *path + ": " + why;
    }
    return CheckpointSource::None;
}

} // namespace autoscale::serve
