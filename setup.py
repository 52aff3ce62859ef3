"""Setup shim.

Kept as the single packaging entry point so that editable installs work
on environments without the ``wheel`` package
(``pip install -e . --no-use-pep517``).

The package is dependency-free by design (stdlib + pydantic): the HTTP
frontend runs on the bundled :mod:`repro.frontend.miniapi` framework and
:mod:`repro.frontend.server`, the only HTTP stack there is.
"""

from setuptools import find_packages, setup

setup(
    name="repro-psmr",
    version="0.9.0",
    description="Reproduction of P-SMR (parallel state-machine replication)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["pydantic>=2"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
