import pytest

from wedderburn import builtin_s5, builtin_sl32_on_p2f2, builtin_sl32_s8, generate, make_field, parse_cycles


@pytest.fixture(scope="session")
def sl32_s8():
    return builtin_sl32_s8()


@pytest.fixture(scope="session")
def sl32_p2f2():
    return builtin_sl32_on_p2f2()


@pytest.fixture(scope="session")
def s5():
    return builtin_s5()


@pytest.fixture(scope="session")
def c7c3():
    # x -> x + 1 and x -> 2x on Z/7; its blocks have d > 1 over most fields
    return generate([parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(2,3,5)(4,7,6)", 7)])


@pytest.fixture(scope="session")
def q8():
    # left regular action on 1, -1, i, -i, j, -j, k, -k
    return generate([parse_cycles("(1,3,2,4)(5,7,6,8)", 8), parse_cycles("(1,5,2,6)(3,8,4,7)", 8)])


@pytest.fixture(scope="session")
def f11():
    return make_field(11)


@pytest.fixture(scope="session")
def f13():
    return make_field(13)


@pytest.fixture(scope="session")
def f169():
    return make_field(13, 2, seed=0)
