#include "host_probe.hh"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <string_view>
#include <vector>

namespace {

// Plain counters: the benchmark is single-threaded.
std::uint64_t gAllocs = 0;
std::uint64_t gAllocBytes = 0;

} // namespace

// Replacement global allocation functions. The array and nothrow
// forms of libstdc++ forward to these, so every heap allocation of the
// simulator is counted.
void *
operator new(std::size_t n)
{
    ++gAllocs;
    gAllocBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace perfbench {

AllocCounts
allocCounts()
{
    return {gAllocs, gAllocBytes};
}

namespace {

constexpr std::size_t kMaxSamples = 1 << 20;
std::uintptr_t gSamples[kMaxSamples];
volatile std::size_t gSampleCount = 0;
bool gHandlerInstalled = false;

void
onProf(int, siginfo_t *, void *ctx)
{
    std::size_t n = gSampleCount;
    if (n < kMaxSamples) {
        auto *uc = static_cast<ucontext_t *>(ctx);
        gSamples[n] = std::uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
        gSampleCount = n + 1;
    }
}

void
setTimer(long usec)
{
    itimerval tv{};
    tv.it_interval.tv_usec = usec;
    tv.it_value.tv_usec = usec;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

struct Symbol
{
    std::uintptr_t addr = 0;
    std::string name;
};

/** Function symbols of the running executable (its .symtab). */
std::vector<Symbol>
loadSymbols()
{
    std::ifstream f("/proc/self/exe", std::ios::binary);
    std::vector<char> img((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
    std::vector<Symbol> syms;
    if (img.size() < sizeof(Elf64_Ehdr))
        return syms;
    Elf64_Ehdr eh;
    std::memcpy(&eh, img.data(), sizeof eh);
    if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64 ||
        eh.e_shoff + std::uint64_t(eh.e_shnum) * sizeof(Elf64_Shdr) >
            img.size())
        return syms;
    std::vector<Elf64_Shdr> sh(eh.e_shnum);
    std::memcpy(sh.data(), img.data() + eh.e_shoff,
                sh.size() * sizeof(Elf64_Shdr));
    for (const Elf64_Shdr &s : sh) {
        if (s.sh_type != SHT_SYMTAB || s.sh_link >= sh.size())
            continue;
        const Elf64_Shdr &strs = sh[s.sh_link];
        if (s.sh_offset + s.sh_size > img.size() ||
            strs.sh_offset + strs.sh_size > img.size())
            continue;
        for (std::uint64_t off = 0; off + sizeof(Elf64_Sym) <= s.sh_size;
             off += sizeof(Elf64_Sym)) {
            Elf64_Sym sym;
            std::memcpy(&sym, img.data() + s.sh_offset + off, sizeof sym);
            if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC ||
                sym.st_value == 0 || sym.st_name >= strs.sh_size)
                continue;
            const char *raw = img.data() + strs.sh_offset + sym.st_name;
            int status = 0;
            char *dem = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
            syms.push_back({std::uintptr_t(sym.st_value),
                            status == 0 && dem ? dem : raw});
            std::free(dem);
        }
    }
    std::sort(syms.begin(), syms.end(),
              [](const Symbol &a, const Symbol &b) {
        return a.addr < b.addr;
    });
    return syms;
}

/** A loaded object's address range. */
struct Module
{
    std::uintptr_t lo = 0, hi = 0, bias = 0;
    std::string name;
    bool exe = false;
};

std::vector<Module>
loadedModules()
{
    std::vector<Module> mods;
    dl_iterate_phdr(
        [](dl_phdr_info *info, std::size_t, void *out) {
        auto &v = *static_cast<std::vector<Module> *>(out);
        for (int i = 0; i < info->dlpi_phnum; ++i) {
            const auto &ph = info->dlpi_phdr[i];
            if (ph.p_type != PT_LOAD)
                continue;
            Module m;
            m.lo = info->dlpi_addr + ph.p_vaddr;
            m.hi = m.lo + ph.p_memsz;
            m.bias = info->dlpi_addr;
            m.name = info->dlpi_name ? info->dlpi_name : "";
            m.exe = v.empty() || (v.front().exe && m.bias == v.front().bias &&
                                  m.name == v.front().name);
            v.push_back(m);
        }
        return 0;
    },
        &mods);
    return mods;
}

/** Drop every parenthesized group (parameter lists). */
std::string
stripParens(std::string_view s)
{
    std::string out;
    int depth = 0;
    for (char c : s) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            depth = std::max(0, depth - 1);
        else if (depth == 0)
            out += c;
    }
    return out;
}

bool
isIdent(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == ':';
}

/**
 * Layer of one demangled function name. A lambda (or the std::function
 * / InlineFunction invoker wrapping one) belongs to the function that
 * defines it; anything else to the first bluedbm namespace its name
 * mentions. Standard-library code on types of no layer (generic maps,
 * byte vectors) is "std"; the allocator entry points are "libc".
 */
std::string
layerOf(const std::string &demangled)
{
    std::string s = stripParens(demangled);
    std::size_t at = std::string::npos;
    std::size_t lambda = s.find("::{lambda");
    if (lambda != std::string::npos) {
        std::size_t b = lambda;
        while (b > 0 && isIdent(s[b - 1]))
            --b;
        if (s.compare(b, 11, "perfbench::") == 0)
            return "bench";
        if (s.compare(b, 9, "bluedbm::") == 0)
            at = b;
    }
    if (at == std::string::npos)
        at = s.find("bluedbm::");
    if (at == std::string::npos) {
        if (s.find("perfbench::") != std::string::npos || s == "main")
            return "bench";
        if (s.rfind("operator new", 0) == 0 ||
            s.rfind("operator delete", 0) == 0)
            return "libc";
        if (s.find("std::") != std::string::npos)
            return "std";
        return "other";
    }
    std::string_view rest = std::string_view(s).substr(at + 9);
    std::string_view ns = rest.substr(0, rest.find("::"));
    if (ns == "flash") {
        std::string_view cls = rest.substr(7);
        if (cls.rfind("Secded", 0) == 0)
            return "flash.ecc";
        if (cls.rfind("NandArray", 0) == 0 ||
            cls.rfind("PageStore", 0) == 0)
            return "flash.nand";
        return "flash.server";
    }
    if (ns == "sim" || ns == "net" || ns == "fs" || ns == "kv" ||
        ns == "core")
        return std::string(ns);
    return "other";
}

} // namespace

void
profilerStart()
{
    if (!gHandlerInstalled) {
        struct sigaction sa{};
        sa.sa_sigaction = onProf;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGPROF, &sa, nullptr);
        gHandlerInstalled = true;
    }
    setTimer(1000);
}

void
profilerStop()
{
    setTimer(0);
}

std::uint64_t
profilerSamples()
{
    return gSampleCount;
}

std::map<std::string, double>
profileByLayer()
{
    std::map<std::string, double> share;
    for (const char *l : {"sim", "net", "flash.ecc", "flash.nand",
                          "flash.server", "fs", "kv", "core", "libc",
                          "std", "bench", "other"})
        share[l] = 0.0;
    std::size_t n = gSampleCount;
    if (n == 0)
        return share;
    std::vector<Symbol> syms = loadSymbols();
    std::vector<Module> mods = loadedModules();
    std::map<std::size_t, std::string> layer_of_sym;
    for (std::size_t i = 0; i < n; ++i) {
        std::uintptr_t pc = gSamples[i];
        const Module *mod = nullptr;
        for (const Module &m : mods)
            if (pc >= m.lo && pc < m.hi) {
                mod = &m;
                break;
            }
        std::string layer = "other";
        if (mod && mod->exe) {
            std::uintptr_t off = pc - mod->bias;
            auto it = std::upper_bound(
                syms.begin(), syms.end(), off,
                [](std::uintptr_t v, const Symbol &s) { return v < s.addr; });
            if (it != syms.begin()) {
                --it;
                std::size_t idx = std::size_t(it - syms.begin());
                auto cached = layer_of_sym.find(idx);
                if (cached == layer_of_sym.end())
                    cached = layer_of_sym.emplace(idx, layerOf(it->name))
                                 .first;
                layer = cached->second;
            }
        } else if (mod && (mod->name.find("libc.") != std::string::npos ||
                           mod->name.find("libstdc++") != std::string::npos ||
                           mod->name.find("libm.") != std::string::npos)) {
            layer = "libc";
        }
        share[layer] += 1.0;
    }
    for (auto &[k, v] : share)
        v = 100.0 * v / double(n);
    return share;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
