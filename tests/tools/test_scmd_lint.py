#!/usr/bin/env python3
"""Tests for tools/lint/scmd_lint.py: one negative fixture per rule (the
lint must actually fire), the clean-counterpart positives, suppression
handling, and the comment/string stripper's line-number preservation.
Stdlib unittest only."""

import os
import subprocess
import sys
import tempfile
import unittest

LINT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, os.pardir, "tools", "lint")
LINT = os.path.join(LINT_DIR, "scmd_lint.py")
sys.path.insert(0, LINT_DIR)

import scmd_lint  # noqa: E402


def findings(rule_fn, path, text):
    return list(rule_fn(path, text))


class StripperTest(unittest.TestCase):
    def test_preserves_line_structure(self):
        src = 'a;\n// new std::mutex\n/* new\nnew */\n"new"\nb;\n'
        out = scmd_lint.strip_comments_and_strings(src)
        self.assertEqual(out.count("\n"), src.count("\n"))
        self.assertNotIn("new", out)
        self.assertNotIn("mutex", out)

    def test_escaped_quote_in_string(self):
        out = scmd_lint.strip_comments_and_strings('x = "a\\"new"; new Y;')
        self.assertEqual(out.count("new"), 1)


class RawTagTest(unittest.TestCase):
    def test_integer_tag_flagged(self):
        hits = findings(scmd_lint.rule_raw_tag, "src/foo.cpp",
                        "comm.send(dst, 42, pack(v));\n"
                        "comm.recv(src, 0x7fffff00);\n")
        self.assertEqual([f.line for f in hits], [1, 2])
        self.assertTrue(all(f.rule == "raw-tag" for f in hits))

    def test_registry_constant_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_raw_tag, "src/foo.cpp",
            "comm.send(dst, tags::kCheck, pack(v));\n"
            "comm.recv(src, tags::import_tag(stage));\n"), [])

    def test_socket_syscall_skipped(self):
        self.assertEqual(findings(
            scmd_lint.rule_raw_tag, "src/net/tcp.cpp",
            "::send(fd, buf, 16, 0);\n::recv(fd, buf, 16, 0);\n"), [])

    def test_tags_hpp_exempt(self):
        self.assertEqual(findings(
            scmd_lint.rule_raw_tag, "src/net/tags.hpp",
            "comm.send(dst, 42, pack(v));\n"), [])


class MutexAnnotationTest(unittest.TestCase):
    def test_raw_std_mutex_flagged(self):
        hits = findings(scmd_lint.rule_mutex_annotation, "src/foo.hpp",
                        "std::mutex m_;\nstd::condition_variable cv_;\n")
        self.assertEqual(len(hits), 2)

    def test_annotated_types_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_mutex_annotation, "src/foo.hpp",
            "Mutex m_;\nCondVar cv_;\n// std::mutex in a comment\n"), [])

    def test_thread_safety_hpp_exempt(self):
        self.assertEqual(findings(
            scmd_lint.rule_mutex_annotation,
            "src/support/thread_safety.hpp", "std::mutex m_;\n"), [])


class NakedNewTest(unittest.TestCase):
    def test_new_expression_flagged(self):
        hits = findings(scmd_lint.rule_naked_new, "src/foo.cpp",
                        "auto* p = new int[4];\n")
        self.assertEqual(len(hits), 1)

    def test_allocator_and_include_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_naked_new, "src/foo.cpp",
            "#include <new>\n"
            "void* p = ::operator new(n, std::align_val_t{64});\n"
            "renew(); make_new_thing();\n"), [])


class StdRandTest(unittest.TestCase):
    def test_rand_flagged(self):
        hits = findings(scmd_lint.rule_std_rand, "src/foo.cpp",
                        "int x = std::rand();\nsrand(42);\n")
        self.assertEqual(len(hits), 2)

    def test_mt19937_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_std_rand, "src/foo.cpp",
            "std::mt19937_64 rng(seed);\nmy_random();\n"), [])


class UnpackTryTest(unittest.TestCase):
    UNGUARDED = ("const auto v = unpack<double>(comm.recv(0, tag));\n"
                 "use(v);\n")
    GUARDED = ("const auto v = unpack<double>(comm.recv(0, tag));\n"
               "SCMD_REQUIRE(v.size() >= 5, \"malformed frame\");\n")

    def test_unguarded_receive_flagged(self):
        hits = findings(scmd_lint.rule_unpack_try, "src/net/foo.cpp",
                        self.UNGUARDED)
        self.assertEqual(len(hits), 1)
        self.assertEqual(hits[0].rule, "unpack-try")

    def test_nearby_require_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_unpack_try, "src/net/foo.cpp", self.GUARDED), [])

    def test_unpack_of_local_buffer_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_unpack_try, "src/net/foo.cpp",
            "const auto v = unpack<double>(blob);\n"), [])

    def test_outside_receive_dirs_not_checked(self):
        self.assertEqual(findings(
            scmd_lint.rule_unpack_try, "src/md/foo.cpp", self.UNGUARDED), [])


class ServiceTagsTest(unittest.TestCase):
    def test_md_channel_in_serve_flagged(self):
        hits = findings(scmd_lint.rule_service_tags, "src/serve/daemon.cpp",
                        "pool_.send(r, tags::kTelemetry, payload);\n"
                        "pool_.recv(r, tags::kGatherState);\n")
        self.assertEqual([f.line for f in hits], [1, 2])
        self.assertTrue(all(f.rule == "service-tags" for f in hits))

    def test_svc_window_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_service_tags, "src/serve/worker.cpp",
            "pool.send(0, tags::kSvcUp, encode_up(msg));\n"
            "pool.recv(0, tags::kSvcCtrl);\n"), [])

    def test_subset_pass_through_and_declarations_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_service_tags, "src/serve/subset.hpp",
            "void send(int dst, int tag, Bytes payload) override;\n"
            "parent_.send(global(dst), tag, std::move(payload));\n"
            "parent_.recv(global(src), tag);\n"), [])

    def test_outside_serve_not_checked(self):
        self.assertEqual(findings(
            scmd_lint.rule_service_tags, "src/parallel/comm.cpp",
            "t.send(dst, tags::kTelemetry, payload);\n"), [])


class TsaEscapeTest(unittest.TestCase):
    def test_escape_in_net_flagged(self):
        hits = findings(scmd_lint.rule_tsa_escape, "src/net/foo.cpp",
                        "void f() SCMD_NO_THREAD_SAFETY_ANALYSIS;\n")
        self.assertEqual(len(hits), 1)

    def test_outside_no_escape_dirs_allowed(self):
        self.assertEqual(findings(
            scmd_lint.rule_tsa_escape, "src/md/foo.cpp",
            "void f() SCMD_NO_THREAD_SAFETY_ANALYSIS;\n"), [])


class RawSocketTest(unittest.TestCase):
    def test_syscalls_in_src_flagged(self):
        hits = findings(scmd_lint.rule_raw_socket, "src/serve/daemon.cpp",
                        "const int fd = ::accept(lfd, nullptr, nullptr);\n"
                        "::send(fd, p, n, MSG_NOSIGNAL);\n"
                        "::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, 4);\n"
                        "if (:: recv(fd, &b, 1, MSG_PEEK) == 0) {}\n")
        self.assertEqual([f.line for f in hits], [1, 2, 3, 4])
        self.assertTrue(all(f.rule == "raw-socket" for f in hits))

    def test_each_listed_syscall_flagged(self):
        for call in ("socket", "connect", "accept", "send", "sendmsg",
                     "recv", "setsockopt"):
            hits = findings(scmd_lint.rule_raw_socket, "src/net/tcp.cpp",
                            f"::{call}(fd);\n")
            self.assertEqual(len(hits), 1, call)

    def test_socket_layer_exempt(self):
        self.assertEqual(findings(
            scmd_lint.rule_raw_socket, "src/net/socket.cpp",
            "::sendmsg(fd, &msg, MSG_NOSIGNAL);\n"), [])

    def test_helpers_methods_and_comments_clean(self):
        self.assertEqual(findings(
            scmd_lint.rule_raw_socket, "src/serve/client.cpp",
            "const int fd = net::dial(host, port);\n"
            "void ClientConnection::shutdown() {}\n"
            "Bytes TcpTransport::recv(int src, int tag) {}\n"
            "pool_.send(r, tags::kSvcUp, payload);\n"
            "auto f = std::bind(g, 1);\n"
            "// ::send(fd, p, n, 0) in a comment\n"), [])

    def test_outside_src_not_checked(self):
        for path in ("tests/net/socket_test.cpp", "bench/ladder/md.cpp"):
            self.assertEqual(findings(
                scmd_lint.rule_raw_socket, path,
                "::socketpair(AF_UNIX, SOCK_STREAM, 0, sv);\n"
                "::send(fd, p, n, 0);\n"), [])


TAGS_FIXTURE = """
namespace scmd::tags {
inline constexpr int kFooBase = 100;
inline constexpr TagRange kRegistry[] = {
    {"foo", kFooBase, 4},
    {"bar", 200, 1},
};
}
"""

DOCS_OK = "| `foo` | 100-103 | halo |\n| `bar` | 200 | check |\n"


class TagDocsTest(unittest.TestCase):
    def run_rule(self, docs_text):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src", "net"))
            os.makedirs(os.path.join(root, "docs"))
            with open(os.path.join(root, scmd_lint.TAGS_HPP), "w",
                      encoding="utf-8") as f:
                f.write(TAGS_FIXTURE)
            with open(os.path.join(root, scmd_lint.TRANSPORT_MD), "w",
                      encoding="utf-8") as f:
                f.write(docs_text)
            return list(scmd_lint.rule_tag_docs(root))

    def test_matching_table_clean(self):
        self.assertEqual(self.run_rule(DOCS_OK), [])

    def test_missing_row_flagged(self):
        hits = self.run_rule("| `foo` | 100-103 | halo |\n")
        self.assertEqual(len(hits), 1)
        self.assertIn("`bar`", hits[0].message)

    def test_wrong_width_flagged(self):
        hits = self.run_rule(
            "| `foo` | 100-101 | halo |\n| `bar` | 200 | check |\n")
        self.assertEqual(len(hits), 1)
        self.assertIn("`foo`", hits[0].message)

    def test_stale_doc_row_flagged(self):
        hits = self.run_rule(DOCS_OK + "| `gone` | 300 | removed |\n")
        self.assertEqual(len(hits), 1)
        self.assertIn("`gone`", hits[0].message)


class CliTest(unittest.TestCase):
    def make_tree(self, bad=True):
        root = tempfile.mkdtemp()
        self.addCleanup(lambda: subprocess.run(["rm", "-rf", root],
                                               check=False))
        os.makedirs(os.path.join(root, "src", "net"))
        os.makedirs(os.path.join(root, "docs"))
        os.makedirs(os.path.join(root, "tools", "lint"))
        with open(os.path.join(root, scmd_lint.TAGS_HPP), "w",
                  encoding="utf-8") as f:
            f.write(TAGS_FIXTURE)
        with open(os.path.join(root, scmd_lint.TRANSPORT_MD), "w",
                  encoding="utf-8") as f:
            f.write(DOCS_OK)
        body = ("comm.send(0, 42, pack(v));\n" if bad
                else "comm.send(0, tags::kFooBase, pack(v));\n")
        with open(os.path.join(root, "src", "net", "proto.cpp"), "w",
                  encoding="utf-8") as f:
            f.write(body)
        return root

    def run_lint(self, root, *extra):
        return subprocess.run(
            [sys.executable, LINT, "--root", root, *extra],
            capture_output=True, text=True, check=False)

    def test_clean_tree_exits_zero(self):
        p = self.run_lint(self.make_tree(bad=False))
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_findings_exit_nonzero(self):
        p = self.run_lint(self.make_tree(bad=True))
        self.assertEqual(p.returncode, 1)
        self.assertIn("raw-tag", p.stdout)

    def test_suppression_file_silences(self):
        root = self.make_tree(bad=True)
        with open(os.path.join(root, scmd_lint.SUPPRESSIONS), "w",
                  encoding="utf-8") as f:
            f.write("# justified in the test\nraw-tag:src/net/proto.cpp\n")
        self.assertEqual(self.run_lint(root).returncode, 0)
        # --no-suppressions restores the finding.
        self.assertEqual(
            self.run_lint(root, "--no-suppressions").returncode, 1)

    def test_malformed_suppression_is_usage_error(self):
        root = self.make_tree(bad=False)
        with open(os.path.join(root, scmd_lint.SUPPRESSIONS), "w",
                  encoding="utf-8") as f:
            f.write("not-a-rule src/net/proto.cpp\n")
        self.assertEqual(self.run_lint(root).returncode, 2)

    def test_list_rules(self):
        p = subprocess.run([sys.executable, LINT, "--list-rules"],
                           capture_output=True, text=True, check=False)
        self.assertEqual(p.returncode, 0)
        for rule in ("raw-tag", "mutex-annotation", "naked-new", "std-rand",
                     "unpack-try", "tsa-escape", "raw-socket", "tag-docs"):
            self.assertIn(rule, p.stdout)

    def test_real_repo_is_clean(self):
        repo = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir)
        p = self.run_lint(os.path.abspath(repo))
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)


if __name__ == "__main__":
    unittest.main()
