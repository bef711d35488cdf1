#include "proc.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/fnv.hh"
#include "serve/protocol.hh"

extern char **environ;

namespace perfbench
{

namespace
{

/** Our environment without RSEP_* (sizing, jobs and fault knobs). */
std::vector<std::string>
childEnv()
{
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "RSEP_", 5) != 0)
            env.emplace_back(*e);
    return env;
}

std::vector<char *>
cStrings(std::vector<std::string> &v)
{
    std::vector<char *> out;
    for (std::string &s : v)
        out.push_back(s.data());
    out.push_back(nullptr);
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** "<prefix><n><suffix>", e.g. "s2.sock". */
std::string
tagged(const char *prefix, unsigned n, const char *suffix)
{
    std::string out = prefix;
    out += std::to_string(n);
    out += suffix;
    return out;
}

/** One Hello round trip: true once the daemon is serving. */
bool
helloOk(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    bool ok = false;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) ==
        0) {
        std::string err;
        rsep::serve::Frame f;
        ok = rsep::serve::writeFrame(fd, rsep::serve::FrameType::Hello,
                                     rsep::serve::helloPayload(), &err) &&
             rsep::serve::readFrame(fd, f, &err) &&
             f.type == rsep::serve::FrameType::Hello;
    }
    ::close(fd);
    return ok;
}

} // namespace

pid_t
spawn(const std::vector<std::string> &argv, const std::string &cwd,
      const std::string &err_path, const std::string &out_path)
{
    // Everything the child touches is built before vfork: the child
    // shares our memory until execve, so it only makes system calls.
    // vfork also keeps the cost of copying this process's page tables
    // (and the copy-on-write faults after it) out of client latency.
    std::vector<std::string> args = argv;
    std::vector<std::string> env = childEnv();
    std::vector<char *> cargs = cStrings(args);
    std::vector<char *> cenv = cStrings(env);
    pid_t parent = ::getpid();

    pid_t pid = ::vfork();
    if (pid != 0)
        return pid;
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent)
        ::_exit(127);
    if (::chdir(cwd.c_str()) != 0)
        ::_exit(127);
    int null_fd = ::open("/dev/null", O_RDWR);
    int out_fd = out_path.empty()
                     ? null_fd
                     : ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
    int err_fd = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                        0644);
    if (null_fd < 0 || out_fd < 0 || err_fd < 0)
        ::_exit(127);
    ::dup2(null_fd, 0);
    ::dup2(out_fd, 1);
    ::dup2(err_fd, 2);
    ::execve(cargs[0], cargs.data(), cenv.data());
    ::_exit(127);
}

int
waitExit(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

Daemon::Daemon(const Options &o, int tag)
    : opt(o), sock(tagged("s", tag, ".sock")),
      cache(tagged("cache-", tag, "")), log(tagged("serve-", tag, ".err"))
{
}

Daemon::~Daemon()
{
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        waitExit(pid);
    }
}

bool
Daemon::start(std::string *err)
{
    pid = spawn({opt.binDir + "/rsep_serve", "--socket", sock, "--jobs",
                 std::to_string(jobs), "--cache-dir", cache},
                opt.workDir, log);
    if (pid < 0) {
        *err = "cannot fork rsep_serve";
        return false;
    }
    std::string path = opt.workDir + "/" + sock;
    auto t0 = Clock::now();
    while (!helloOk(path)) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            pid = -1;
            *err = "rsep_serve exited during start-up: " +
                   readFile(opt.workDir + "/" + log);
            return false;
        }
        if (msSince(t0) > 20000) {
            *err = "rsep_serve did not answer within 20 s";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

double
Daemon::peakRssMb() const
{
    return pid > 0 ? perfbench::peakRssMb(pid) : 0.0;
}

u64
Daemon::stop()
{
    if (pid <= 0)
        return 0;
    ::kill(pid, SIGTERM);
    waitExit(pid);
    pid = -1;
    std::istringstream in(readFile(opt.workDir + "/" + log));
    std::string line;
    unsigned long long served = 0, busy = 0;
    while (std::getline(in, line))
        if (std::sscanf(line.c_str(),
                        "[serve] serve.retries_served=%llu "
                        "serve.busy_rejections=%llu",
                        &served, &busy) == 2)
            return busy;
    return 0;
}

ClientResult
runClient(const Options &opt, const Daemon &d, const ClientJob &job,
          unsigned slot)
{
    std::string tag = tagged("c", slot, "");
    std::vector<std::string> argv = {
        opt.binDir + "/bench_fig4_speedup", "--connect", d.socket(),
        "--scenario-file", job.scnFile, "--workload", job.workloads,
        "--csv", tag + ".csv"};
    if (!job.replayDir.empty()) {
        argv.push_back("--replay-trace");
        argv.push_back(job.replayDir);
    }
    if (job.seed != canonicalSeed) {
        argv.push_back("--seed");
        argv.push_back(std::to_string(job.seed));
    }
    std::string csv = opt.workDir + "/" + tag + ".csv";
    std::remove(csv.c_str());

    ClientResult r;
    auto t0 = Clock::now();
    pid_t pid = spawn(argv, opt.workDir, tag + ".err");
    if (pid < 0)
        return r;
    r.exitCode = waitExit(pid);
    r.latencyMs = msSince(t0);

    std::istringstream in(readFile(opt.workDir + "/" + tag + ".err"));
    std::string line;
    while (std::getline(in, line)) {
        unsigned long long run = 0, cached = 0, batched = 0;
        double queue = 0, wall = 0;
        if (std::sscanf(line.c_str(),
                        "[connect] done: %llu run, %llu cached, %llu "
                        "batched; queue %lf ms, wall %lf ms",
                        &run, &cached, &batched, &queue, &wall) == 5) {
            r.done = true;
            r.cellsRun = run;
            r.cached = cached;
            r.queueMs = queue;
            r.serverMs = wall;
        }
        if (line.rfind("[connect] attempt ", 0) == 0)
            ++r.retries;
        if (line.find("rsep_serve busy") != std::string::npos)
            r.busy = true;
    }
    if (r.exitCode == 0) {
        std::string dump = readFile(csv);
        if (!dump.empty())
            r.digest = digestOf(dump);
    }
    return r;
}

} // namespace perfbench
