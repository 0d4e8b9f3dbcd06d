"""``line_audit.py``'s collector lists a function's lines that did not run,
and only those: the branch not taken, and not the def line, the lines that
ran, or the module and class bodies around them."""

import line_audit

SOURCE = '''\
LIMIT = 0


class Sign:
    name = "sign"

    def of(self, x):
        if x < LIMIT:
            return "negative"
        return "not negative"
'''


def test_the_collector_lists_the_branch_not_taken(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    namespace = {}
    exec(compile(SOURCE, str(path), "exec"), namespace)
    assert line_audit.function_lines(path) == {7, 8, 9, 10}
    with line_audit.LineCollector([str(path)]) as collector:
        assert namespace["Sign"]().of(1) == "not negative"
    assert collector.ran == {str(path): {7, 8, 10}}
    assert line_audit.unrun_lines(path, collector.ran[str(path)]) == [9]
