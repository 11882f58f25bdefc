#include "util/checked_io.hh"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <utility>

#include "fault/failpoint.hh"
#include "util/logging.hh"

namespace rcache
{

void
ioFatal(const std::string &path)
{
    std::cerr << "rcache-sim: error writing '" << path
              << "' (disk full or device error?); completed output "
                 "was flushed before this point\n";
    std::exit(kIoErrorExit);
}

namespace
{

/** Evaluate @p site; returns true when the write must be dropped
 *  (io_error). Torn never returns. */
bool
injectWriteFault(std::ostream &os, std::string_view text,
                 const char *site)
{
    if (site == nullptr)
        return false;
    const fault::Fire fire = RC_FAILPOINT(site);
    if (fire == fault::Fire::None)
        return false;
    if (fire == fault::Fire::Torn) {
        // Half the payload reaches the stream and is flushed, then
        // the process dies without another byte — a torn write.
        os.write(text.data(),
                 static_cast<std::streamsize>(text.size() / 2));
        os.flush();
        fault::failpointCrash(site, "torn write");
    }
    return true;
}

} // namespace

void
checkedAppend(std::ostream &os, std::string_view text,
              const std::string &path, const char *site)
{
    if (injectWriteFault(os, text, site))
        os.setstate(std::ios::badbit);
    else
        os.write(text.data(),
                 static_cast<std::streamsize>(text.size()));
    os.flush();
    if (!os)
        ioFatal(path);
}

void
checkedFlush(std::ostream &os, const std::string &path,
             const char *site)
{
    if (site != nullptr && RC_FAILPOINT(site) != fault::Fire::None)
        os.setstate(std::ios::badbit);
    os.flush();
    if (!os)
        ioFatal(path);
}

std::optional<std::string>
quarantineCorruptFile(const std::string &path)
{
    const std::string aside =
        path + ".corrupt." + std::to_string(std::time(nullptr));
    if (std::rename(path.c_str(), aside.c_str()) != 0)
        return std::nullopt;
    return aside;
}

std::optional<std::string>
readCompleteLines(const std::string &path, bool *torn)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = std::move(buf).str();
    const bool cut = !text.empty() && text.back() != '\n';
    if (cut) {
        const std::size_t last_nl = text.rfind('\n');
        text.resize(last_nl == std::string::npos ? 0 : last_nl + 1);
    }
    if (torn)
        *torn = cut;
    return text;
}

void
quarantineAndStartFresh(const std::string &path, const std::string &why)
{
    const auto aside = quarantineCorruptFile(path);
    RC_LOG(warn, "--resume " + path + ": " + why + "; " +
                     (aside ? "moved aside to '" + *aside + "'"
                            : "could not move it aside") +
                     ", starting fresh");
}

} // namespace rcache
