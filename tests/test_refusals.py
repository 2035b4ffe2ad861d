"""Input the CLI would ignore, or output it cannot write, exits 2 with a message.

A config key, section or descriptor key that no step reads would let a run
exit 0 with a result the user did not ask for; an unwritable ``--out`` is a
usage error, not the failed verification that exit 1 reports.
"""

import pytest

from polscissors import cli

CONFIG = """
[experiment]
preparation = bell-pqs1
backend = analytic
phi = 0.3
t0 = 0.5

[axis1]
name = delta
start = 0.6
stop = 1.0
steps = 3

[axis2]
name = t
start = 0.9
stop = 0.98
steps = 2
"""
GAMMA_AXIS = ("name = t\nstart = 0.9\nstop = 0.98", "name = gamma_abs\nstart = 0.03\nstop = 0.07")


def _sweep(tmp_path, capsys, text):
    config = tmp_path / "exp.ini"
    config.write_text(text)
    code = cli.main(["sweep", "--config", str(config)])
    return code, capsys.readouterr().err


def test_the_unmutated_config_runs(tmp_path, capsys):
    assert _sweep(tmp_path, capsys, CONFIG) == (0, "")


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("steps = 3", "steps = 3\nstpes = 9"), "unknown [axis1] keys: ['stpes']"),
        (("steps = 2", "steps = 2\nstart_at = 0.5"), "unknown [axis2] keys: ['start_at']"),
        (("steps = 2\n", "steps = 2\n\n[axis3]\nname = phi\n"), "unknown sections: ['axis3']"),
        (("[experiment]", "[DEFAULT]\nphi = 0.7\n\n[experiment]"), "unknown sections: ['DEFAULT']"),
    ],
    ids=["axis1-key", "axis2-key", "axis3", "default"],
)
def test_a_key_or_section_no_step_reads_exits_2(mutation, message, tmp_path, capsys):
    code, err = _sweep(tmp_path, capsys, CONFIG.replace(*mutation))
    assert (code, err) == (2, f"configuration error: {message}\n")


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("steps = 3\n", ""), "missing [axis1] keys: ['steps']"),
        ((CONFIG[CONFIG.index("[axis2]") :], ""), "missing sections: ['axis2']"),
    ],
    ids=["axis1-key", "axis2"],
)
def test_a_missing_section_or_axis_key_exits_2(mutation, message, tmp_path, capsys):
    code, err = _sweep(tmp_path, capsys, CONFIG.replace(*mutation))
    assert (code, err) == (2, f"configuration error: {message}\n")


@pytest.mark.parametrize(
    "preparation,fixed,axes",
    [
        ("bell-pqs2", "t = 0.9", GAMMA_AXIS),
        ("hybrid-pqs2", "t = 0.9", GAMMA_AXIS),
        ("bell-pqs1", "gamma_abs = 0.05", ("", "")),
        ("omega\nbackend = numeric\nomega_n = 2\nomega_j = 2\nomega_scissors = pqs1,pqs1", "gamma_abs = 0.05", ("", "")),
    ],
    ids=["bell-pqs2", "hybrid-pqs2", "bell-pqs1", "omega-pqs1"],
)
def test_a_fixed_knob_the_preparation_never_reads_exits_2(preparation, fixed, axes, tmp_path, capsys):
    # it would be echoed in the CSV header as if it had been used
    text = CONFIG.replace("t0 = 0.5", f"t0 = 0.5\n{fixed}").replace(*axes)
    text = text.replace("preparation = bell-pqs1\nbackend = analytic", f"preparation = {preparation}")
    name, prep = fixed.split()[0], preparation.split()[0]
    code, err = _sweep(tmp_path, capsys, text)
    assert (code, err) == (2, f"configuration error: [experiment] key {name!r} is no knob of {prep}\n")
    without = text.replace(f"{fixed}\n", "")
    assert _sweep(tmp_path, capsys, without) == (0, "")


@pytest.mark.parametrize(
    "descriptor,unused",
    [
        ("lambda:delta=0.6,t1=0.5,t3=0.4", "t3"),
        ("lambda:delta=0.6,t2=0.5", "t2"),
        ("lambda:delta=0.6,t01=0.5", "t01"),
        ("lambda-circuit:delta=0.6,t2=0.5", "t2"),
        ("target-omega:delta=1,j=2,t2=0.4", "t2"),
    ],
)
def test_descriptor_split_keys_are_t1_t2_in_turn(descriptor, unused, capsys):
    # t3 without t2 once read as t2, and t2 or t01 alone as t1
    assert cli.main(["state", "--prep", descriptor]) == 2
    assert capsys.readouterr().err == f"configuration error: unused descriptor parameters: [{unused!r}]\n"
    assert cli.main(["state", "--prep", "lambda:delta=0.6,t1=0.5,t2=0.4"]) == 0


@pytest.mark.parametrize(
    "descriptor,extra,builder",
    [
        ("xi-circuit:delta=6", "t2=0.5", "lambda_circuit"),
        ("lambda:delta=1,n=6,t1=0.5,t2=0.5,t3=0.5,t4=0.5", "bogus=1", "lambda_state"),
    ],
    ids=["xi-circuit", "lambda"],
)
def test_an_unused_descriptor_key_exits_2_before_the_state_is_built(descriptor, extra, builder, monkeypatch, capsys):
    # built, the first overflows a beam splitter and the second exceeds the source size limit: exit 3
    class Built(Exception):
        pass

    def spy(*args):
        raise Built

    monkeypatch.setattr(cli, builder, spy)
    assert cli.main(["state", "--prep", f"{descriptor},{extra}"]) == 2
    unused = extra.partition("=")[0]
    assert capsys.readouterr().err == f"configuration error: unused descriptor parameters: [{unused!r}]\n"
    with pytest.raises(Built):  # without the extra key, the spied builder is what runs
        cli.main(["state", "--prep", descriptor])


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--reference", "bell-pqs1"], ["state", "--prep", "coherent:gamma=0.5"]],
    ids=["sweep", "state"],
)
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_unwritable_out_exits_2(argv, where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.txt" if where == "missing-directory" else tmp_path
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: cannot write output file: ")
